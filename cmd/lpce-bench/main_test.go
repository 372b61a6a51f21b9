package main

import (
	"bytes"
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
