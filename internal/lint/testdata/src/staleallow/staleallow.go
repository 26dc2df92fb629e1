// Package stalefix seeds allow directives in every state the stale-allow
// analyzer distinguishes. It is analyzed under the package path
// "stef/internal/kernels" so hotpath-alloc actually runs (hot package) and
// //gate:allow placement is legitimate (gated package).
package stalefix

// setup's per-call allocation is genuinely suppressed: the directive must
// NOT be reported as stale.
func setup(n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n) //lint:allow hotpath-alloc once per call
	}
	return out
}

func staleLine(dst []float64, s float64) {
	for i := range dst {
		dst[i] += s //lint:allow hotpath-alloc nothing allocates here // want "suppresses no finding"
	}
}

//lint:allow hotpath-alloc whole function, but it never allocates // want "suppresses no finding"
func staleDoc(dst []float64, s float64) {
	for i := range dst {
		dst[i] *= s
	}
}

//lint:allow hotpath-allok misspelled analyzer name // want "unknown analyzer"
func typo(n int) []float64 {
	return make([]float64, n)
}

// gated is fine: //gate:allow directives in a gated package belong to the
// gates harness, which checks their staleness itself.
func gated(dst []float64, idx []int) {
	for i := range idx {
		dst[idx[i]]++ //gate:allow bounds data-dependent index
	}
}

// kindList is fine: a comma-joined first word naming only real kinds.
func kindList(dst []float64, idx []int) {
	for i := range idx {
		dst[idx[i]]++ //gate:allow escape,bounds data-dependent index
	}
}

// kindTypo misspells "bounds" in its kind list. The gates parser reads the
// whole first word as reason text, silently widening the directive to all
// kinds, so stale-allow must catch the typo.
func kindTypo(dst []float64, idx []int) {
	for i := range idx {
		dst[idx[i]]++ //gate:allow escape,bonds data-dependent index // want "unknown gate kind"
	}
}

// shapeKind is fine: "shape" is a real kind, the rest is reason text.
//
//gate:allow shape certified elsewhere
func shapeKind(dst []float64, s float64) {
	for i := range dst {
		dst[i] += s
	}
}

// shapeNearMiss drops the final letter of "shape". Even with reason text
// following, a first word one edit from a real kind is a typo, not a
// reason: the gates parser would widen the directive to every kind.
//
//gate:allow shap waiving the machine-code certification // want "unknown gate kind"
func shapeNearMiss(dst []float64, s float64) {
	for i := range dst {
		dst[i] += s
	}
}

// idxTypos seeds //idx: annotations whose facets misspell the closed
// vocabulary. The //idx: parser deliberately skips unknown tokens (a typo
// degrades to "no information"), so stale-allow is where each becomes
// visible. idxOK is the control: a well-formed annotation stays silent.
type idxTypos struct {
	//idx: len=rank,nzz elem=fid // want "unknown scale class"
	fids [][]int32
	//idx: lem=fid // want "unknown facet key"
	writer []int32
	//idx: nzz // want "unknown scale class"
	writes int64
	//idx: nnz
	idxOK int64
}

// lifeKindTypo misspells the lifecycle kind: the //life: binder skips
// lines it does not recognize, so the ownership contract would silently
// vanish without this check.
//
// life: return ownd // want "unknown //life: word"
func lifeKindTypo() *idxTypos { return nil }

// lifeReleaseTypo misspells "releases"; same silent-drop failure mode.
//
// life: w releses // want "unknown //life: word"
func lifeReleaseTypo(w *idxTypos) {}

// lifeOK is the control: a well-formed annotation stays silent.
//
// life: return owned
func lifeOK() *idxTypos { return nil }
