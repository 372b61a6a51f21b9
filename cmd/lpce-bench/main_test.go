package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestUnknownExperimentRejectedBeforeSetup checks that a mistyped
// -experiment fails at once with a non-zero status, naming the valid
// experiments, instead of after the data generation and training of the
// default small-scale set-up.
func TestUnknownExperimentRejectedBeforeSetup(t *testing.T) {
	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := realMain([]string{"-experiment", "tabel1"}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("unknown experiment exited 0")
	}
	if strings.Contains(stdout.String(), "setting up environment") {
		t.Fatalf("set-up started for an unknown experiment:\n%s", stdout.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, `unknown experiment "tabel1"`) || !strings.Contains(msg, "table1") {
		t.Fatalf("error does not name the bad and the valid experiments: %q", msg)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("rejection took %s", d)
	}
}

// TestObserveFlagsRejectedBeforeSetup checks that the observe experiment's
// flags fail with exit status 2 before the set-up when another experiment
// is selected, instead of being silently ignored.
func TestObserveFlagsRejectedBeforeSetup(t *testing.T) {
	out := filepath.Join(t.TempDir(), "r.json")
	for _, args := range [][]string{
		{"-experiment=table1", "-metrics-out=" + out},
		{"-experiment=figure18", "-trace"},
		{"-timeout=1s"},
		{"-experiment=joblike", "-max-mat-rows=10"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
		if strings.Contains(stdout.String(), "setting up environment") {
			t.Fatalf("%v: set-up started:\n%s", args, stdout.String())
		}
		flagName := strings.SplitN(strings.TrimPrefix(args[len(args)-1], "-"), "=", 2)[0]
		if msg := stderr.String(); !strings.Contains(msg, "-"+flagName) || !strings.Contains(msg, "observe") {
			t.Fatalf("%v: error does not name the flag and the observe experiment: %q", args, msg)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("rejected run wrote %s (stat err %v)", out, err)
	}
}

// TestBadFlagExitsNonZero checks that a flag parse error is an exit status,
// not a panic or a set-up run.
func TestBadFlagExitsNonZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-no-such-flag"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown flag accepted")
	}
	if stdout.Len() != 0 {
		t.Fatalf("output before flag error:\n%s", stdout.String())
	}
}
