package main

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/harness"
)

// A bad command line is rejected before the first experiment runs: nothing
// on stdout, exit code 2, the offending word on stderr.
func TestBadCommandLineRunsNothing(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-quick", "fig8", "tpyo"}, `unknown experiment "tpyo"`},
		{[]string{"-parallel", "fig8"}, "flag provided but not defined: -parallel"},
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
	for _, c := range []struct{ blocks, id, want string }{
		{"4", "fig5", "over-provisioning"},
		// One block per plane leaves ablate-suspend's writer no block
		// beside the reader's.
		{"3", "ablate-suspend", "need 2 blocks per plane"},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-quick", "-blocks", c.blocks, c.id}, &stdout, &stderr)
		if code != 1 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("-blocks %s %s: run = %d, stderr %q; want 1 and %q", c.blocks, c.id, code, stderr.String(), c.want)
		}
	}
}

// docCommands are the lnvm-bench command lines of the documents that tell a
// reader what to run, as argument lists: the lines of fenced code blocks
// and the inline code spans, a span's line breaks read as spaces. A command
// ends at a shell operator or comment; "<...>" placeholders are dropped.
func docCommands(t *testing.T, path string) [][]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var code []string
	fenced := regexp.MustCompile("(?s)\n[ \t]*```[a-z]*\n(.*?)\n[ \t]*```")
	text := fenced.ReplaceAllStringFunc(string(data), func(block string) string {
		code = append(code, strings.Split(fenced.FindStringSubmatch(block)[1], "\n")...)
		return "\n"
	})
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(text, -1) {
		code = append(code, strings.Join(strings.Fields(m[1]), " "))
	}
	var cmds [][]string
	for _, c := range code {
		_, after, ok := strings.Cut(c, "lnvm-bench ")
		if !ok {
			continue
		}
		var args []string
		for _, w := range strings.Fields(after) {
			if strings.ContainsAny(w[:1], "|>#;&") {
				break
			}
			if !strings.HasPrefix(w, "<") {
				args = append(args, w)
			}
		}
		cmds = append(cmds, args)
	}
	return cmds
}

// Every experiment id on a documented lnvm-bench command line is
// registered, so deleting or renaming an experiment fails here until the
// documents that name it move too.
func TestDocCommandsNameRegisteredExperiments(t *testing.T) {
	n := 0
	for _, path := range []string{"../../README.md", "../../.claude/skills/verify/SKILL.md"} {
		for _, args := range docCommands(t, path) {
			fs, _ := flags(io.Discard)
			if err := fs.Parse(args); err != nil {
				t.Errorf("%s: lnvm-bench %s: %v", path, strings.Join(args, " "), err)
				continue
			}
			for _, id := range fs.Args() {
				n++
				if _, ok := harness.ByID(id); !ok && id != "all" {
					t.Errorf("%s: lnvm-bench %s: unknown experiment %q", path, strings.Join(args, " "), id)
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("found no experiment id on any documented lnvm-bench command line")
	}
}
