package explore

import (
	"encoding/json"
	"fmt"
)

// ArtifactVersion is bumped when a stored artifact would stop decoding or
// stop replaying to what it recorded.
// History: v1 — original record; v2 — plans may carry a DLS adversary
// policy (Plan.DLS) and outcomes a state signature, so v1 readers would
// silently replay a dls artifact under the wrong schedule; v3 — same shape,
// but the Definition 5, churn-stability, lincheck and FIFO oracles were
// each merged into one and adopted one wording, and Replay compares verdict
// details byte for byte, so a v2 artifact of those targets would replay
// with a matching trace hash and a spurious verdict mismatch. Re-record it
// from its seed (its plan still replays if copied into a fresh run).
const ArtifactVersion = 3

// Artifact is the self-contained JSON record of one failing run: the plan
// pinned to the executed schedule and policy tape, plus what the run
// produced. Replaying the plan reproduces the verdicts and the trace hash
// byte-exactly (see the package determinism contract).
type Artifact struct {
	Version int `json:"version"`
	// Plan is the pinned plan: Prefix holds the full executed schedule and
	// Tape the full policy decision record.
	Plan Plan `json:"plan"`
	// Verdicts are the oracle verdicts the run produced.
	Verdicts []Verdict `json:"verdicts"`
	// TraceHash is the run's execution fingerprint.
	TraceHash string `json:"trace_hash"`
	// Steps is the number of steps the run actually executed.
	Steps int64 `json:"steps"`
	// Err is the kernel error (task panic with stack), if any.
	Err string `json:"err,omitempty"`
	// Note records provenance ("found by fuzzing", shrink statistics, …).
	Note string `json:"note,omitempty"`
}

// NewArtifact pins a plan to its outcome: the executed schedule becomes the
// plan's prefix and the recorded policy tape its tape, so the artifact
// replays without consulting the strategy generator or fresh policy draws.
// The plan's budget is deliberately NOT trimmed to the executed step count:
// a run that died in a task panic aborted *mid-step*, and replaying with a
// budget of exactly the recorded steps would end cleanly one step short of
// the panic.
func NewArtifact(p Plan, o *Outcome) *Artifact {
	p.Prefix = append([]int32(nil), o.Schedule...)
	p.Tape = o.Tape
	return &Artifact{
		Version:   ArtifactVersion,
		Plan:      p,
		Verdicts:  append([]Verdict(nil), o.Verdicts...),
		TraceHash: o.TraceHash,
		Steps:     o.Steps,
		Err:       o.Err,
	}
}

// FirstFailingVerdict renders the artifact's first failing verdict, or ""
// when every recorded verdict passed.
func (a *Artifact) FirstFailingVerdict() string {
	for _, v := range a.Verdicts {
		if !v.OK {
			return v.String()
		}
	}
	return ""
}

// Encode renders the artifact as indented JSON with a trailing newline.
func (a *Artifact) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("explore: encode artifact: %w", err)
	}
	return append(b, '\n'), nil
}

// DecodeArtifact parses an artifact and validates its version. The version
// is probed *before* the full decode: a future-versioned artifact may have
// fields this build's Plan cannot even unmarshal, and the error the user
// needs is "expected version 3, found 4", not a decode panic deep in a
// field that did not exist yet.
func DecodeArtifact(data []byte) (*Artifact, error) {
	var probe struct {
		Version *int `json:"version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("explore: decode artifact: %w", err)
	}
	if probe.Version == nil {
		return nil, fmt.Errorf("explore: not an artifact: no version field (expected version %d)", ArtifactVersion)
	}
	if *probe.Version != ArtifactVersion {
		return nil, fmt.Errorf("explore: artifact version mismatch: expected %d, found %d", ArtifactVersion, *probe.Version)
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("explore: decode artifact: %w", err)
	}
	if a.Plan.Target == "" {
		return nil, fmt.Errorf("explore: artifact has no target")
	}
	return &a, nil
}

// ReplayResult reports how a replayed run compared to its artifact.
type ReplayResult struct {
	// Outcome is the fresh run's outcome.
	Outcome *Outcome
	// HashMatch reports whether the trace hash matches the artifact's.
	HashMatch bool
	// VerdictsMatch reports whether the verdict list is identical.
	VerdictsMatch bool
}

// Exact reports a byte-exact reproduction: same trace, same verdicts.
func (r *ReplayResult) Exact() bool { return r.HashMatch && r.VerdictsMatch }

// Replay re-executes the artifact's plan and compares the outcome against
// the stored record.
func Replay(a *Artifact) (*ReplayResult, error) {
	out, err := SafeExecute(a.Plan)
	if err != nil {
		return nil, err
	}
	return &ReplayResult{
		Outcome:       out,
		HashMatch:     out.TraceHash == a.TraceHash,
		VerdictsMatch: verdictsEqual(out.Verdicts, a.Verdicts),
	}, nil
}

func verdictsEqual(a, b []Verdict) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
