package main

import (
	"bytes"
	"strings"
	"testing"
)

// A bad command line is rejected before the first experiment runs: nothing
// on stdout, exit code 2, the offending word on stderr.
func TestBadCommandLineRunsNothing(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-quick", "overhead", "tpyo"}, `unknown experiment "tpyo"`},
		{[]string{"-parallel", "overhead"}, "flag provided but not defined: -parallel"},
		{nil, "usage: lnvm-bench"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("run(%q) = %d, stdout %q, stderr %q; want 2, no output and %q on stderr",
				c.args, code, stdout.String(), stderr.String(), c.want)
		}
	}
}

// A valid flag value an experiment cannot run with — a device below pblk's
// spare-pool floor — is an error on stderr and exit 1. A panic would end the
// test binary instead.
func TestTooSmallDeviceIsAnError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "-blocks", "4", "fig5"}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "over-provisioning") {
		t.Errorf("run = %d, stderr %q; want 1 and pblk's over-provisioning error", code, stderr.String())
	}
}
