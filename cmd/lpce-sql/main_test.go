package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestBadFlagsRejectedBeforeSetup checks that a bad -estimator or -tenants
// value fails at once with a non-zero status, naming the problem, instead
// of after data generation and model training.
func TestBadFlagsRejectedBeforeSetup(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-estimator", "lpce-x"}, `unknown -estimator "lpce-x"`},
		{[]string{"-tenants", ":2"}, "empty tenant name"},
		{[]string{"-tenants", "a,a"}, `duplicate tenant "a"`},
		{[]string{"-tenants", "a:0"}, "bad tenant weight"},
		{[]string{"-tenants", ","}, "-tenants is empty"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			start := time.Now()
			if code := realMain(tc.args, &stdout, &stderr); code == 0 {
				t.Fatal("exited 0")
			}
			if stdout.Len() != 0 {
				t.Fatalf("set-up started:\n%s", stdout.String())
			}
			if msg := stderr.String(); !strings.Contains(msg, tc.want) {
				t.Fatalf("stderr %q does not contain %q", msg, tc.want)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("rejection took %s", d)
			}
		})
	}
}

// TestParseTenants checks the accepted -tenants forms.
func TestParseTenants(t *testing.T) {
	got, err := parseTenants(" alpha:2, beta ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "alpha" || got[0].Weight != 2 || got[1].Name != "beta" || got[1].Weight != 1 {
		t.Fatalf("parseTenants = %+v", got)
	}
}
