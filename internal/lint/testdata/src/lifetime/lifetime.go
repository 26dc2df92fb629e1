// Package lifefix seeds one violation of every lifetime finding class —
// L1 use-after-release (direct, through a helper, and via a derived
// view), L2 pooled-value escapes (returned, stored in a global, captured
// by a goroutine), L3 leak on a return path, and an unbound //life:
// directive — each next to a clean twin that must stay silent: the
// analyzer's value is exactly this contrast, same resource flow with the
// obligation discharged.
package lifefix

import "stef/internal/csf"

// lifeErr is a dependency-free error value for the seeded error paths.
type lifeErr struct{}

func (lifeErr) Error() string { return "lifefix: boom" }

// res is a releasable resource: a module type with `Close() error` is
// tracked by the intrinsic, no annotation needed.
type res struct {
	data []byte
}

// Close releases the resource's backing.
func (r *res) Close() error { return nil }

// openRes acquires a resource; callers own it on every path.
//
// life: return owned
func openRes() (*res, error) { return &res{data: make([]byte, 8)}, nil }

// window returns a view into the resource's backing; it dies with r.
//
// life: return view
func (r *res) window() []byte { return r.data }

// closeBoth releases both resources; callers of closeBoth inherit the
// release through its interprocedural summary, with no annotation.
func closeBoth(a, b *res) {
	_ = a.Close()
	_ = b.Close()
}

// UseAfterClose reads the backing after releasing it (L1).
func UseAfterClose() byte {
	r, err := openRes()
	if err != nil {
		return 0
	}
	_ = r.Close()
	return r.data[0] // want "use of r after release"
}

// ReadThenClose is the clean twin: the deferred Close covers every path.
func ReadThenClose() (byte, error) {
	r, err := openRes()
	if err != nil {
		return 0, err
	}
	defer r.Close()
	return r.data[0], nil
}

// UseAfterHelperClose releases through a helper composed at the call
// site; the summary machinery must see through it (L1, interprocedural).
func UseAfterHelperClose() byte {
	a, _ := openRes()
	b, _ := openRes()
	closeBoth(a, b)
	return b.data[0] // want "use of b after release"
}

// ViewAfterClose reads a derived view after its backing died (L1).
func ViewAfterClose() byte {
	r, _ := openRes()
	v := r.window()
	_ = r.Close()
	return v[0] // want "after release of its backing"
}

// ViewBeforeClose is the clean twin: the view is consumed inside the
// resource's lifetime.
func ViewBeforeClose() byte {
	r, _ := openRes()
	v := r.window()
	defer r.Close()
	return v[0]
}

// TreeUseAfterClose exercises the Close intrinsic on the real csf
// accessor seam: no //life: annotation is in scope for csf here, the
// module `Close() error` method alone marks the release (L1).
func TreeUseAfterClose(t *csf.Tree) int64 {
	_ = t.Close()
	return t.NNZ64() // want "use of t after release"
}

// LeakOnError acquires and then returns on an error path without
// releasing (L3). The err-guard path for openRes's own error is exempt:
// on that path the resource was never acquired.
func LeakOnError(n int) (*res, error) {
	r, err := openRes()
	if err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, lifeErr{} // want "may leak"
	}
	return r, nil
}

// NoLeakOnError is the clean twin: the early path releases explicitly,
// the success path transfers ownership out.
func NoLeakOnError(n int) (*res, error) {
	r, err := openRes()
	if err != nil {
		return nil, err
	}
	if n < 0 {
		_ = r.Close()
		return nil, lifeErr{}
	}
	return r, nil
}

// ws is a pooled workspace; its internals must not outlive the
// acquire→release window.
type ws struct {
	buf []float64
}

// pool hands out reusable workspaces.
type pool struct{}

// acquire draws a workspace from the pool.
//
// life: return pooled
func (p *pool) acquire() *ws { return &ws{buf: make([]float64, 4)} }

// release hands w back to the pool.
//
// life: w releases
func (p *pool) release(w *ws) {}

// sink is the escape target for the global-store case.
var sink *ws

// EscapeReturn hands a pooled workspace to the caller (L2).
func EscapeReturn(p *pool) *ws {
	w := p.acquire()
	return w // want "escapes"
}

// EscapeGlobal parks a pooled workspace in a package-level variable (L2).
func EscapeGlobal(p *pool) {
	w := p.acquire()
	sink = w // want "escapes"
	p.release(w)
}

// EscapeGoroutine captures a pooled workspace in a goroutine that may
// outlive the window (L2).
func EscapeGoroutine(p *pool) {
	w := p.acquire()
	go func() { _ = w.buf[0] }() // want "captured by a goroutine"
	p.release(w)
}

// EscapeViewReturn returns a slice of pooled internals; the view escapes
// even though the workspace itself is released (L2).
func EscapeViewReturn(p *pool) []float64 {
	w := p.acquire()
	b := w.buf
	defer p.release(w)
	return b // want "escapes"
}

// UsePooled is the clean twin: all workspace traffic stays inside the
// window and release is deferred unconditionally.
func UsePooled(p *pool) float64 {
	w := p.acquire()
	defer p.release(w)
	w.buf[0] = 1
	return w.buf[0]
}

// UseAfterRelease touches the workspace after handing it back (L1 over
// the pooled vocabulary).
func UseAfterRelease(p *pool) float64 {
	w := p.acquire()
	p.release(w)
	return w.buf[0] // want "use of w after release"
}

// life: return owned // want "binds nothing"
var unboundTarget int
