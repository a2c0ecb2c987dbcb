package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutput runs the example and compares what it prints with its
// committed expected.txt, byte for byte: the run is deterministic, so any
// difference is an API or model change the example shows.
func TestOutput(t *testing.T) {
	want, err := os.ReadFile("expected.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output differs from expected.txt\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
