package csf

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"stef/internal/tensor"
)

// arenaBytes returns the arena image of a small built tree.
func arenaBytes(t *testing.T, dims []int, nnz int, seed int64) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seed.stef")
	if err := mustTree(dims, nnz, seed).WriteArena(path); err != nil {
		t.Fatalf("WriteArena: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// openArenaBytes writes data to a temp file and opens it as an arena.
func openArenaBytes(t *testing.T, data []byte) (*Tree, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "case.stef")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return OpenArena(path)
}

func TestArenaRoundTrip(t *testing.T) {
	cases := []struct {
		dims []int
		nnz  int
	}{
		{[]int{5, 7, 9}, 60},
		{[]int{20, 3, 11, 8}, 200},
		{[]int{4, 4, 4, 4, 4}, 100},
		{[]int{2, 1000, 3}, 500},
		{[]int{100, 1, 50}, 80},
	}
	dir := t.TempDir()
	for _, c := range cases {
		tr := mustTree(c.dims, c.nnz, 11)
		path := filepath.Join(dir, "t.stef")
		if err := tr.WriteArena(path); err != nil {
			t.Fatalf("dims %v: WriteArena: %v", c.dims, err)
		}
		back, err := OpenArena(path)
		if err != nil {
			t.Fatalf("dims %v: OpenArena: %v", c.dims, err)
		}
		if back.Backing() == nil {
			t.Fatalf("dims %v: arena tree has no backing", c.dims)
		}
		if k := back.Backing().Kind(); runtime.GOOS == "linux" && k != "arena-mmap" {
			t.Fatalf("dims %v: backing kind %q on linux, want arena-mmap", c.dims, k)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("dims %v: opened tree invalid: %v", c.dims, err)
		}
		if !Equal(back, tr) {
			t.Fatalf("dims %v: arena round trip changed the tree", c.dims)
		}
		if err := back.Close(); err != nil {
			t.Fatalf("dims %v: Close: %v", c.dims, err)
		}
		if err := back.Close(); err != nil {
			t.Fatalf("dims %v: second Close: %v", c.dims, err)
		}
	}
}

// TestArenaHeapTreeLifecycle pins that heap trees take the no-op branch of
// the shared lifecycle: nil backing, Close returns nil.
func TestArenaHeapTreeLifecycle(t *testing.T) {
	tr := mustTree([]int{5, 6, 7}, 60, 2)
	if tr.Backing() != nil {
		t.Fatal("heap-built tree has a backing")
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("heap tree Close: %v", err)
	}
}

// TestArenaCorruptHeaders drives targeted header corruptions through
// OpenArena; each must be refused with a structural error before any
// allocation or mapping sized by the lie.
func TestArenaCorruptHeaders(t *testing.T) {
	valid := arenaBytes(t, []int{5, 6, 7}, 60, 2)

	put32 := func(data []byte, off int, v uint32) []byte {
		out := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(out[off:], v)
		return out
	}
	put64 := func(data []byte, off int, v uint64) []byte {
		out := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(out[off:], v)
		return out
	}
	// Section table entry i lives at 24+16i (offset) and 24+16i+8 (count).
	secOff := func(i int) int { return arenaFixedHeader + 16*i }

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"bad magic", append([]byte("NOTANARN"), valid[8:]...), "bad arena magic"},
		{"bad version", put32(valid, 8, 99), "unsupported arena version"},
		{"byte-swapped endian mark", put32(valid, 12, 0x0D0C0B0A), "endianness mark"},
		{"order zero", put32(valid, 16, 0), "implausible arena order"},
		{"order huge", put32(valid, 16, 1000), "implausible arena order"},
		{"reserved set", put32(valid, 20, 1), "reserved"},
		{"truncated fixed header", valid[:20], "read arena header"},
		{"truncated section table", valid[:32], "read arena section table"},
		{"empty file", nil, "read arena header"},
		{"misaligned section offset", put64(valid, secOff(2), uint64(binary.LittleEndian.Uint64(valid[secOff(2):]))+4), "misaligned"},
		{"offset inside header", put64(valid, secOff(0), 8), "misaligned or inside the header"},
		{"overlapping sections", put64(valid, secOff(3), uint64(binary.LittleEndian.Uint64(valid[secOff(2):]))), "overlaps"},
		{"lying length", put64(valid, secOff(2)+8, 1<<30), "exceeds file size"},
		{"count beyond maxCount", put64(valid, secOff(2)+8, uint64(maxCount)+1), "implausible"},
		{"dims count wrong", put64(valid, secOff(0)+8, 2), "dims/perm section counts"},
		// Deflating (not inflating) the ptr count keeps the geometry inside
		// the file, so the failure is the cross-count invariant itself.
		{"ptr count off by one", put64(valid, secOff(5)+8, uint64(binary.LittleEndian.Uint64(valid[secOff(5)+8:]))-1), "want fiber count"},
		{"truncated body", valid[:len(valid)-8], "exceeds file size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := openArenaBytes(t, tc.data)
			if err == nil {
				tr.Close()
				t.Fatal("corrupt arena accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestArenaMetaHardening corrupts the dims/perm payloads (legal geometry,
// lying metadata): both must be refused at decode time.
func TestArenaMetaHardening(t *testing.T) {
	valid := arenaBytes(t, []int{5, 6, 7}, 60, 2)
	g, err := parseArenaGeometry(valid, int64(len(valid)))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(off int64, v int64) []byte {
		out := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(out[off:], uint64(v))
		return out
	}

	if tr, err := openArenaBytes(t, corrupt(g.dimsSec().off, -5)); err == nil {
		tr.Close()
		t.Fatal("negative dim accepted")
	} else if !strings.Contains(err.Error(), "dim") {
		t.Fatalf("negative dim: %v", err)
	}
	if tr, err := openArenaBytes(t, corrupt(g.permSec().off, 7)); err == nil {
		tr.Close()
		t.Fatal("out-of-range perm accepted")
	} else if !strings.Contains(err.Error(), "perm") {
		t.Fatalf("bad perm: %v", err)
	}
	// Duplicate perm entry: in range, but not a permutation.
	dupe := corrupt(g.permSec().off, int64(binary.LittleEndian.Uint64(valid[g.permSec().off+8:])))
	if tr, err := openArenaBytes(t, dupe); err == nil {
		tr.Close()
		t.Fatal("duplicate perm accepted")
	}
}

// TestArenaEndpointHardening corrupts pointer endpoints — the only part of
// the body OpenArena inspects: ptr[0] != 0 and a last pointer that fails
// to cover the next level must both be refused.
func TestArenaEndpointHardening(t *testing.T) {
	valid := arenaBytes(t, []int{5, 6, 7}, 60, 2)
	g, err := parseArenaGeometry(valid, int64(len(valid)))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(off int64, v int64) []byte {
		out := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(out[off:], uint64(v))
		return out
	}
	p0 := g.ptrSec(0)
	if tr, err := openArenaBytes(t, corrupt(p0.off, 1)); err == nil {
		tr.Close()
		t.Fatal("ptr[0] != 0 accepted")
	} else if !strings.Contains(err.Error(), "ptr[0]") {
		t.Fatalf("ptr[0]: %v", err)
	}
	last := p0.off + (p0.count-1)*8
	if tr, err := openArenaBytes(t, corrupt(last, 1)); err == nil {
		tr.Close()
		t.Fatal("non-covering last pointer accepted")
	} else if !strings.Contains(err.Error(), "does not cover") {
		t.Fatalf("last ptr: %v", err)
	}
}

// TestWriteArenaAtomic pins the crash-safe write discipline shared with
// SaveFile: a failed write must leave the previous file intact and no temp
// files behind.
func TestWriteArenaAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.stef")
	tr := mustTree([]int{5, 6, 7}, 60, 2)
	if err := tr.WriteArena(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// An over-order tree fails writeArenaTo after the temp file exists; the
	// target and directory must be untouched.
	deep := &Tree{dims: make([]int, arenaMaxOrder+1), perm: make([]int, arenaMaxOrder+1),
		fids: make([][]int32, arenaMaxOrder+1), ptr: make([][]int64, arenaMaxOrder+1)}
	if err := deep.WriteArena(path); err == nil {
		t.Fatal("over-order arena write succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatal("failed write modified the target file")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %q left behind", e.Name())
		}
	}
}

// TestOpenArenaAllocIndependentOfNNZ pins the zero-copy property: on the
// mmap path, opening an arena allocates only the O(rank) Tree scaffolding
// (header decode, dims/perm, slice headers), never per-nnz copies of the
// level arrays, so the allocation count cannot grow with tensor size.
func TestOpenArenaAllocIndependentOfNNZ(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("zero-copy open is the linux mmap path; the fallback reads sections to the heap")
	}
	measure := func(dims []int, nnz int) float64 {
		path := filepath.Join(t.TempDir(), "pin.stef")
		if err := mustTree(dims, nnz, 11).WriteArena(path); err != nil {
			t.Fatalf("WriteArena: %v", err)
		}
		return testing.AllocsPerRun(20, func() {
			tr, err := OpenArena(path)
			if err != nil {
				t.Fatalf("OpenArena: %v", err)
			}
			tr.Close()
		})
	}
	small := measure([]int{10, 12, 14}, 200)
	large := measure([]int{60, 70, 80}, 50000)
	if small != large {
		t.Fatalf("OpenArena allocations scale with nnz: %.0f at 200 nnz vs %.0f at 50000 nnz", small, large)
	}
}

// FuzzOpenArena feeds arbitrary bytes to the arena opener via a temp file;
// it must never panic or allocate beyond what the file size can back, and
// whatever it accepts must survive Validate-or-error plus a write/reopen
// round trip.
func FuzzOpenArena(f *testing.F) {
	seedTree := Build(tensor.Random([]int{5, 6, 7}, 60, nil, 2), nil)
	dir, err := os.MkdirTemp("", "arena-fuzz-seed")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	seedPath := filepath.Join(dir, "seed.stef")
	if err := seedTree.WriteArena(seedPath); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}

	put32 := func(data []byte, off int, v uint32) []byte {
		out := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(out[off:], v)
		return out
	}
	put64 := func(data []byte, off int, v uint64) []byte {
		out := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(out[off:], v)
		return out
	}

	f.Add(valid)
	f.Add(valid[:len(valid)/2])       // truncated mid-body
	f.Add(valid[:arenaFixedHeader-1]) // truncated inside the fixed header
	f.Add([]byte{})
	f.Add([]byte("NOTANARN-and-then-some-padding-bytes"))
	f.Add(put32(valid, 12, 0x0D0C0B0A))                    // wrong endianness
	f.Add(put32(valid, 16, 65))                            // order beyond bound
	f.Add(put64(valid, arenaFixedHeader+16*2, 28))         // misaligned fids offset
	f.Add(put64(valid, arenaFixedHeader+16*2+8, 1<<35))    // lying length
	f.Add(put64(valid, arenaFixedHeader+16*2+8, maxCount)) // boundary count exactly at the cap
	f.Add(put64(valid, arenaFixedHeader+16*2+8, maxCount+1))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.stef")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tr, err := OpenArena(path)
		if err != nil {
			return
		}
		defer tr.Close()
		// OpenArena checks geometry and endpoints only; the body may still
		// be structurally invalid. Validate must return an error or succeed
		// — never panic.
		if err := tr.Validate(); err != nil {
			return
		}
		// A fully valid accepted tree must survive a write/reopen cycle.
		rt := filepath.Join(t.TempDir(), "rt.stef")
		if err := tr.WriteArena(rt); err != nil {
			t.Fatalf("re-write of accepted arena failed: %v", err)
		}
		back, err := OpenArena(rt)
		if err != nil {
			t.Fatalf("re-open of accepted arena failed: %v", err)
		}
		defer back.Close()
		if !Equal(back, tr) {
			t.Fatal("arena round trip changed the tree")
		}
	})
}
