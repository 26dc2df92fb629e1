//go:build linux

package kernels

import (
	"syscall"
	"testing"
	"unsafe"
)

// hugeSlice returns a zeroed slice of n elements backed by an anonymous
// MAP_NORESERVE mapping, released when the test ends. The kernel commits a
// page only when it is first touched and, with MAP_NORESERVE, does not
// count the mapping against the overcommit heuristic, so a near-2^31-row
// factor costs only the pages its non-zeros reference on any host. A Go
// heap allocation of the same size is refused outright on hosts with less
// memory than the extent.
func hugeSlice[T float64 | uint64](t testing.TB, n int) []T {
	t.Helper()
	if n == 0 {
		return nil
	}
	data, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		t.Fatalf("mmap %d bytes: %v", n*8, err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(data); err != nil {
			t.Errorf("munmap: %v", err)
		}
	})
	return unsafe.Slice((*T)(unsafe.Pointer(&data[0])), n)
}
