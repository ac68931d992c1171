package explore

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"
)

// TestRegistryRowsAgreeWithTheirRigs: for every row, the oracle names one
// short run's verdicts carry are, in order, the names the row declares —
// Execute stamps them, so this is really "every rig returns one judge per
// declared name". The short budget makes most verdicts vacuous, which is
// fine: the names are what is checked. selftest-panic's bomb may go off
// inside the budget, and then the kernel-level oracle speaks instead.
func TestRegistryRowsAgreeWithTheirRigs(t *testing.T) {
	for _, tgt := range Targets() {
		t.Run(tgt.Name, func(t *testing.T) {
			t.Parallel()
			out, err := Execute(NewPlan(tgt, 1, 2_000))
			if err != nil {
				t.Fatal(err)
			}
			if tgt.Name == "selftest-panic" && len(out.Verdicts) == 1 && out.Verdicts[0].Oracle == noPanicOracle {
				return
			}
			if len(out.Verdicts) != len(tgt.Oracles) {
				t.Fatalf("%d verdicts %v for declared oracles %v", len(out.Verdicts), out.Verdicts, tgt.Oracles)
			}
			for i, v := range out.Verdicts {
				if v.Oracle != tgt.Oracles[i] {
					t.Errorf("verdict %d is %q, row declares %q", i, v.Oracle, tgt.Oracles[i])
				}
			}
		})
	}
}

// TestNoForcedCrashUnlessAsked: the Target zero value asks for no forced
// crash. Over 50 seeds a row without MustCrash gets at most the
// generator's one optional random crash per plan, and at least one plan
// with none (a forced crash would be in all 50); NoCrashes rows get none
// at all; MustCrash rows get theirs first, in every plan.
func TestNoForcedCrashUnlessAsked(t *testing.T) {
	for _, tgt := range Targets() {
		crashFree := 0
		for seed := int64(1); seed <= 50; seed++ {
			p := NewPlan(tgt, seed, 0)
			random := p.Crashes[min(len(tgt.MustCrash), len(p.Crashes)):]
			if len(p.Crashes) < len(tgt.MustCrash) || len(random) > 1 || (tgt.NoCrashes && len(random) > 0) {
				t.Fatalf("%s seed %d: crashes %v for MustCrash %v, NoCrashes %v", tgt.Name, seed, p.Crashes, tgt.MustCrash, tgt.NoCrashes)
			}
			for i, proc := range tgt.MustCrash {
				if p.Crashes[i].Proc != proc {
					t.Fatalf("%s seed %d: crash %d hits process %d, MustCrash says %d", tgt.Name, seed, i, p.Crashes[i].Proc, proc)
				}
			}
			if len(p.Crashes) == 0 {
				crashFree++
			}
		}
		if len(tgt.MustCrash) == 0 && crashFree == 0 {
			t.Errorf("%s: every one of 50 plans carries a crash, but the row asks for none", tgt.Name)
		}
	}
}

// TestNewPlanMatchesPinnedParent: NewPlan(tgt, seed, 0) for seeds 1–20,
// as JSON, hashes per target to what the generator produced at 87db7e9 —
// so its rng draws are provably in the order they were (strategy, DLS
// point, forced crashes, random crash, partition schedule).
func TestNewPlanMatchesPinnedParent(t *testing.T) {
	pinned := map[string]string{
		"qa-counter":                   "f1f01d2c31d2ccd4",
		"qa-counter-misreport":         "cf335ee36d41c7b4",
		"counter-atomic":               "6a81e99acb5ec65b",
		"counter-abortable":            "4cf6983cb5b65f12",
		"omega-registers":              "f01791f4e15794f6",
		"omega-churn":                  "09017eeb8e627146",
		"omega-churn-noselfpunish":     "dcb0ef89b2e15498",
		"elector-atomic":               "6a0330450f1fea0c",
		"elector-abortable":            "c3765fd7b88483de",
		"elector-nerio":                "f9cc0f46e3c984de",
		"elector-nerio-nodepose":       "ce13bedec0174a10",
		"elector-reputation":           "e3775932c6099c90",
		"elector-reputation-churn":     "6109a314f0d40b60",
		"elector-reputation-nopenalty": "7f15ea3063f31544",
		"heartbeat-dual":               "b8ca60352d6769c3",
		"heartbeat-single":             "2abdb91288cd0fb3",
		"messenger-backoff":            "c5e36962957f78ce",
		"messenger-nobackoff":          "919e410d0660f292",
		"monitor-pair":                 "8954c8316871235d",
		"monitor-nogate":               "5cd0b64e8c4f91fd",
		"selftest-panic":               "1469520d0b1e5962",
		"net/partition":                "973053dd853b1287",
		"net/reorder":                  "b549eaf60f1940cc",
		"net/partition-rq1":            "ab35b0b1d3a4404b",
		"serve/counter":                "6ed7c404d0609a02",
		"serve/register":               "e32196110fcc4d30",
		"shard/kv":                     "c2a70850c7cdaf84",
		"shard/kv-nobatchfence":        "e3cd875ae218f6f2",
		"frontier/monitor-adaptive":    "e352732b26f8e640",
		"frontier/monitor-fixed":       "b0562c2914d85448",
		"frontier/monitor-fixed-wide":  "0d653f2a8f0a7348",
	}
	if len(pinned) != len(Targets()) {
		t.Fatalf("%d pinned plan hashes for %d targets", len(pinned), len(Targets()))
	}
	for _, tgt := range Targets() {
		h := fnv.New64a()
		for seed := int64(1); seed <= 20; seed++ {
			b, err := json.Marshal(NewPlan(tgt, seed, 0))
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
			h.Write([]byte{'\n'})
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != pinned[tgt.Name] {
			t.Errorf("%s: plans for seeds 1–20 hash to %s, pinned %s", tgt.Name, got, pinned[tgt.Name])
		}
	}
}
