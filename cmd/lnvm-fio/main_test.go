package main

import (
	"bytes"
	"strings"
	"testing"
)

// The README's command runs at the default device scale: exit 0, a read
// line on stdout, nothing on stderr.
func TestReadmeCommandRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-device", "pblk", "-rw", "randread", "-iodepth", "32"}, &stdout, &stderr)
	if code != 0 || stderr.Len() != 0 || !strings.Contains(stdout.String(), "  read : io=") {
		t.Errorf("run = %d, stdout %q, stderr %q; want 0, a read line and no errors", code, stdout.String(), stderr.String())
	}
}

// A job with no stop condition, or a bad flag, is rejected: exit 2, nothing
// on stdout, the reason on stderr.
func TestBadJobRunsNothing(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-runtime", "0"}, "stop condition"},
		{[]string{"-rw", "randwrite", "-runtime", "-1s"}, "stop condition"},
		{[]string{"-device", "sata"}, `unknown device "sata"`},
		{[]string{"-prepare", "2"}, "-prepare must be a fraction"},
		{[]string{"-iodepht", "2"}, "flag provided but not defined: -iodepht"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("run(%q) = %d, stdout %q, stderr %q; want 2, no output and %q on stderr",
				c.args, code, stdout.String(), stderr.String(), c.want)
		}
	}
}
