package main

import (
	"bytes"
	"fmt"
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

// TestUnknownScaleRejectedBeforeSetup checks that a mistyped -scale
// exits with status 2 before the set-up, naming the valid scales, instead
// of silently running another scale's set-up.
func TestUnknownScaleRejectedBeforeSetup(t *testing.T) {
	for _, scale := range []string{"smal", "Small", ""} {
		var stdout, stderr bytes.Buffer
		if code := realMain([]string{"-scale=" + scale, "-experiment=table1"}, &stdout, &stderr); code != 2 {
			t.Fatalf("-scale=%q: exit %d, want 2", scale, code)
		}
		if strings.Contains(stdout.String(), "setting up environment") {
			t.Fatalf("-scale=%q: set-up started:\n%s", scale, stdout.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, fmt.Sprintf("unknown scale %q", scale)) || !strings.Contains(msg, "tiny, small or full") {
			t.Fatalf("-scale=%q: error does not name the bad and the valid scales: %q", scale, msg)
		}
	}
}

// TestObserveFlagsRejectedBeforeSetup checks that -metrics-out fails with
// exit status 2 before the set-up, writing no file, when an experiment
// other than joblike is selected, instead of being silently ignored.
func TestObserveFlagsRejectedBeforeSetup(t *testing.T) {
	out := filepath.Join(t.TempDir(), "r.json")
	for _, args := range [][]string{
		{"-experiment=table1", "-metrics-out=" + out},
		{"-metrics-out=" + out},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
		if strings.Contains(stdout.String(), "setting up environment") {
			t.Fatalf("%v: set-up started:\n%s", args, stdout.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, "-metrics-out") || !strings.Contains(msg, "joblike") {
			t.Fatalf("%v: error does not name the flag and the joblike experiment: %q", args, msg)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("rejected run wrote %s (stat err %v)", out, err)
	}
}

// TestBadFlagExitsNonZero checks that a flag parse error is an exit status,
// not a panic or a set-up run; -trace, -parallel, -timeout and
// -max-mat-rows are not flags of this command.
func TestBadFlagExitsNonZero(t *testing.T) {
	for _, flag := range []string{"-no-such-flag", "-trace", "-parallel=4", "-timeout=1s", "-max-mat-rows=10"} {
		var stdout, stderr bytes.Buffer
		if code := realMain([]string{"-experiment=joblike", flag}, &stdout, &stderr); code == 0 {
			t.Fatalf("%s: unknown flag accepted", flag)
		}
		if stdout.Len() != 0 {
			t.Fatalf("%s: output before flag error:\n%s", flag, stdout.String())
		}
	}
}
