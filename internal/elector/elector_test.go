// The external test package lets these tests borrow internal/deploy's Sim
// substrate adapter (deploy sits above elector in the import graph).
package elector_test

import (
	"strings"
	"testing"

	"tbwf/internal/deploy"
	. "tbwf/internal/elector"
	"tbwf/internal/prim"
	"tbwf/internal/sim"
)

// simSub adapts a fresh kernel to prim.Substrate for Build calls.
func simSub(n int) prim.Substrate { return deploy.Sim(sim.New(n)) }

func TestNamesCoversTheBakeoffField(t *testing.T) {
	got := Names()
	want := []string{"abortable", "atomic", "nerio", "reputation"}
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestParseResolvesCanonicalAliasAndDefault(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", "atomic"}, // the default elector
		{"atomic", "atomic"},
		{"atomic-registers", "atomic"}, // legacy -omega vocabulary
		{"abortable", "abortable"},
		{"abortable-registers", "abortable"},
		{"nerio", "nerio"},
		{"nerio-lease", "nerio"},
		{"reputation", "reputation"},
		{"reputation-penalty", "reputation"},
	}
	for _, tc := range cases {
		b, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if b.FlagName() != tc.want {
			t.Errorf("Parse(%q) = %q, want %q", tc.in, b.FlagName(), tc.want)
		}
	}
}

func TestParseRejectsUnknownWithVocabulary(t *testing.T) {
	_, err := Parse("paxos")
	if err == nil {
		t.Fatal("Parse accepted an unknown elector")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

func TestResolveArbitratesElectorAndLegacyOmega(t *testing.T) {
	cases := []struct {
		elector, omega string
		want           string
		wantErr        bool
	}{
		{"", "", "atomic", false},                // both empty: default
		{"nerio", "", "nerio", false},            // -elector alone
		{"", "abortable", "abortable", false},    // legacy -omega alone
		{"nerio", "nerio-lease", "nerio", false}, // agreeing spellings
		{"nerio", "abortable", "", true},         // conflict is an error
		{"", "paxos", "", true},                  // unknown legacy value
		{"bogus", "", "", true},                  // unknown elector value
		{"atomic", "atomic-registers", "atomic", false},
	}
	for _, tc := range cases {
		b, err := Resolve(tc.elector, tc.omega)
		if tc.wantErr {
			if err == nil {
				t.Errorf("Resolve(%q, %q) accepted, want error", tc.elector, tc.omega)
			}
			continue
		}
		if err != nil {
			t.Errorf("Resolve(%q, %q): %v", tc.elector, tc.omega, err)
			continue
		}
		if b.FlagName() != tc.want {
			t.Errorf("Resolve(%q, %q) = %q, want %q", tc.elector, tc.omega, b.FlagName(), tc.want)
		}
	}
}

// Ablated variants carry distinguishable telemetry names, so a fuzz
// artifact or serve report can never pass one off as the sound elector;
// they share the sound builder's flag name but are not registered.
func TestAblatedVariantsAreNamedAndUnregistered(t *testing.T) {
	cases := []struct {
		builder  Builder
		wantName string
	}{
		{NewAtomic(AtomicOptions{NoSelfPunish: true}), "atomic-registers-noselfpunish"},
		{NewNerio(NerioOptions{NoDepose: true}), "nerio-lease-nodepose"},
		{NewReputation(ReputationOptions{NoPenalty: true}), "reputation-penalty-nopenalty"},
	}
	for _, tc := range cases {
		el, err := tc.builder.Build(simSub(3), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if el.Name() != tc.wantName {
			t.Errorf("ablated elector Name() = %q, want %q", el.Name(), tc.wantName)
		}
		if _, err := Parse(tc.wantName); err == nil {
			t.Errorf("ablated name %q resolves via Parse; ablations must stay out of the flag vocabulary", tc.wantName)
		}
	}
}

// The concrete-type accessors recover the underlying deployments for
// consumers that need construction-specific telemetry, and refuse
// foreign electors.
func TestConcreteAccessors(t *testing.T) {
	at, err := Atomic.Build(simSub(3), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Deployment(at); !ok {
		t.Error("Deployment() rejected the atomic elector")
	}
	if _, ok := AbortableSystem(at); ok {
		t.Error("AbortableSystem() accepted the atomic elector")
	}
	ab, err := Abortable.Build(simSub(3), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := AbortableSystem(ab); !ok {
		t.Error("AbortableSystem() rejected the abortable elector")
	}
	if m, ok := ab.FaultMatrix(); ok || m != nil {
		t.Error("the abortable elector claims a fault matrix; Figures 4-6 keep no fault counters")
	}
}

func TestBuildersRejectTooFewProcesses(t *testing.T) {
	for _, name := range Names() {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Build(simSub(1), Config{}); err == nil {
			t.Errorf("%s accepted a 1-process substrate", name)
		}
	}
}
