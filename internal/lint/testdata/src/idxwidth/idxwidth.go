// Package idxfix seeds one violation of every idx-width finding class,
// next to a guarded twin that must stay silent: the analyzer's value is
// exactly this contrast — same arithmetic, one provably safe form.
package idxfix

import "stef/internal/idx"

// tree mirrors the CSF boundary shapes and their scale classes.
type tree struct {
	//idx: len=rank,nnz elem=fid
	fids [][]int32
	//idx: len=rank,nnz elem=nnz
	ptr [][]int64
	//idx: len=nnz
	vals []float64
	//idx: len=rank elem=dim
	dims []int
}

// Narrow packs an nnz-scale count into 32 bits without a guard.
//
// idx: k nnz
func Narrow(k int64) int32 {
	return int32(k) // want "narrowing conversion"
}

// NarrowGuarded routes the same pack through the checked guard: silent.
//
// idx: k nnz
func NarrowGuarded(k int64) int32 {
	return idx.Must32(k)
}

// Product multiplies two nnz-scale counts; 2^80 cannot fit int64.
//
// idx: a nnz
// idx: b nnz
func Product(a, b int64) int64 {
	return a * b // want "cannot fit int64"
}

// ProductGuarded performs the same multiply behind the overflow guard.
//
// idx: a nnz
// idx: b nnz
func ProductGuarded(a, b int64) int64 {
	return idx.Mul(a, b)
}

// LoopNarrow narrows a loop counter whose condition bound is nnz-scale.
//
// idx: n nnz
func LoopNarrow(n int64) int32 {
	var last int32
	for i := int64(0); i < n; i++ {
		last = int32(i) // want "narrowing conversion"
	}
	return last
}

// LeafCount reads the count out of an annotated container length.
func (t *tree) LeafCount() int32 {
	nnz := len(t.vals)
	return int32(nnz) // want "narrowing conversion"
}

// FidSum adds two fiber ids at the width they are stored at: the sum of
// two int32-bounded values needs 33 bits.
func (t *tree) FidSum(i int) int32 {
	f := t.fids[0][i]
	return f + f // want "under-width sum"
}

// Index performs 32-bit arithmetic in slice-index position with no
// provable bound.
func Index(s []float64, a, b int32) float64 {
	return s[a+b] // want "32-bit index arithmetic"
}

// IndexWide computes the same index at 64-bit width: silent.
func IndexWide(s []float64, a, b int32) float64 {
	return s[int(a)+int(b)]
}

// Unbound's directive names a parameter that does not exist.
//
// idx: missing nnz // want "binds nothing"
func Unbound(x int64) int64 {
	return x
}
