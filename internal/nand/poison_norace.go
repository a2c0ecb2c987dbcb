//go:build !race

package nand

const poisonOnRecycle = false
