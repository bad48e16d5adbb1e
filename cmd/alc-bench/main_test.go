package main

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/bench"
)

// visits runs the CLI with a stub runner that records which experiments it
// was handed (and under which options) instead of simulating anything.
func visits(t *testing.T, args ...string) (names []string, opts []options, stderr string, err error) {
	t.Helper()
	var errw bytes.Buffer
	err = run(args, io.Discard, &errw, func(e experiment, o options, _ io.Writer, _ *bench.CSVWriter) error {
		names = append(names, e.name)
		opts = append(opts, o)
		return nil
	})
	return names, opts, errw.String(), err
}

func TestUnknownExperimentListsTheTable(t *testing.T) {
	ran, _, _, err := visits(t, "-experiment", "bogus")
	if err == nil {
		t.Fatal("unknown experiment accepted (main would exit 0)")
	}
	if len(ran) != 0 {
		t.Fatalf("ran %v for an unknown name", ran)
	}
	_, list, ok := strings.Cut(err.Error(), "want one of ")
	if !ok {
		t.Fatalf("error does not list the experiments: %v", err)
	}
	got := strings.Split(strings.TrimSuffix(list, ")"), ", ")
	if want := append(names(), "all"); !reflect.DeepEqual(got, want) {
		t.Fatalf("error lists %v, table is %v", got, want)
	}
}

func TestAllVisitsTheTableInOrder(t *testing.T) {
	for _, args := range [][]string{nil, {"-experiment", "all"}} {
		ran, _, _, err := visits(t, args...)
		if err != nil {
			t.Fatal(err)
		}
		if want := names(); !reflect.DeepEqual(ran, want) {
			t.Fatalf("args %v visited %v, table is %v", args, ran, want)
		}
	}
	want := []string{"fig3a", "fig3b", "fig4", "latency", "ablation-opt", "ablation-cc",
		"ablation-bloom", "ablation-locality", "ablation-routing", "ablation-batch"}
	if got := names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("experiment table %v, want the %d entries %v", got, len(want), want)
	}
	ran, _, _, err := visits(t, "-experiment", "ablation-batch")
	if err != nil || !reflect.DeepEqual(ran, []string{"ablation-batch"}) {
		t.Fatalf("single experiment visited %v, err %v", ran, err)
	}
}

func TestUsageAndCeilingComeFromTheFlags(t *testing.T) {
	_, _, usage, _ := visits(t, "-h")
	for _, name := range names() {
		if !strings.Contains(usage, "\n  "+name+" ") {
			t.Errorf("usage text lacks experiment %q", name)
		}
	}
	for arg, want := range map[string]time.Duration{"-1": -1, "0": 0, "2ms": 2 * time.Millisecond} {
		_, opts, _, err := visits(t, "-experiment", "fig3a", "-ab-ceiling", arg)
		if err != nil {
			t.Fatalf("-ab-ceiling %s: %v", arg, err)
		}
		if got := opts[0].base.ABCeiling; got != want {
			t.Errorf("-ab-ceiling %s stamped ABCeiling %v on the base Params, want %v", arg, got, want)
		}
	}
	if _, _, _, err := visits(t, "-ab-ceiling", "soon"); err == nil {
		t.Error("-ab-ceiling soon accepted")
	}
}
