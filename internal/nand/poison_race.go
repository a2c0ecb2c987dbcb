//go:build race

package nand

// poisonOnRecycle makes Erase scribble over every buffer it recycles, so
// under `go test -race` a reader that kept a Read slice past the erase of
// its block sees 0xDB instead of plausible old bytes.
const poisonOnRecycle = true
