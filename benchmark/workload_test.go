package main

import (
	"reflect"
	"testing"
)

func stream(w *workload, seed int64, caller, n int) []op {
	rng := callerRNG(seed, caller)
	counts := make([]int, len(w.keys))
	ops := make([]op, n)
	for i := range ops {
		ops[i] = w.next(caller, rng, counts)
		counts[ops[i].key]++
	}
	return ops
}

// The same seed must give the same inputs, a different seed or caller others.
func TestSeededStreamsRepeat(t *testing.T) {
	for _, w := range workloads {
		for caller := 0; caller < numCallers; caller++ {
			a, b := stream(w, 42, caller, 2000), stream(w, 42, caller, 2000)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s caller %d: two constructions with one seed differ", w.name, caller)
			}
			if reflect.DeepEqual(a, stream(w, 43, caller, 2000)) {
				t.Errorf("%s caller %d: seeds 42 and 43 give the same stream", w.name, caller)
			}
		}
		if reflect.DeepEqual(stream(w, 42, 0, 2000), stream(w, 42, 1, 2000)) {
			t.Errorf("%s: both callers draw the same stream", w.name)
		}
	}
}

// Each workload's operations must stay inside the key ranges its design
// promises: private keys are private, shared ones shared, pairs fixed.
func TestStreamsRespectKeyOwnership(t *testing.T) {
	for _, w := range workloads {
		var touched [numCallers]map[int]bool
		for caller := range touched {
			touched[caller] = map[int]bool{}
			ops := append(w.pretouch(caller), stream(w, 1, caller, 5000)...)
			for _, o := range ops {
				if o.key < 0 || o.key >= len(w.keys) {
					t.Fatalf("%s: key %d out of range", w.name, o.key)
				}
				if o.kind == opTransfer && o.key2 != o.key+1 {
					t.Fatalf("%s: transfer between %d and %d is not a fixed pair", w.name, o.key, o.key2)
				}
				if o.kind != opGet {
					touched[caller][o.key] = true
				}
			}
		}
		shared := 0
		for k := range touched[0] {
			if touched[1][k] {
				shared++
			}
		}
		if w.name == "lease-rotate" {
			if shared < sharedKeys*9/10 {
				t.Errorf("lease-rotate: callers share only %d written keys", shared)
			}
		} else if shared != 0 {
			t.Errorf("%s: callers share %d written keys, want none", w.name, shared)
		}
	}
}

func TestReadMostlyMix(t *testing.T) {
	w := workloadByName("read-mostly")
	gets := 0
	ops := stream(w, 3, 0, 20000)
	for _, o := range ops {
		if o.kind == opGet {
			gets++
		}
	}
	if share := 100 * gets / len(ops); share < readShare-2 || share > readShare+2 {
		t.Errorf("read share %d %%, want about %d %%", share, readShare)
	}
}
