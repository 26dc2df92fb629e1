//go:build !linux

package kernels

import "testing"

// hugeSlice returns a zeroed slice of n elements. Without an anonymous
// MAP_NORESERVE mapping it falls back to the Go heap, which only works
// where the runtime may reserve the full extent.
func hugeSlice[T float64 | uint64](_ testing.TB, n int) []T {
	return make([]T, n)
}
