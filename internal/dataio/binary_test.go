package dataio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"attrank/internal/synth"
)

func TestBinaryRoundTrip(t *testing.T) {
	n := sampleNet(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, n); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	equalNets(t, n, back)
}

func TestBinaryRoundTripSynthetic(t *testing.T) {
	p := synth.DBLP()
	p.Papers = 600
	p.AuthorPool = 250
	net, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, net); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	equalNets(t, net, back)
}

func TestBinaryFileDispatch(t *testing.T) {
	n := sampleNet(t)
	path := filepath.Join(t.TempDir(), "net.anb")
	if err := SaveFile(path, n); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	equalNets(t, n, back)
}

func TestBinaryRejectsBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOPE....")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadBinary(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestBinaryRejectsTruncation(t *testing.T) {
	n := sampleNet(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, n); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must error, never panic.
	for _, cut := range []int{5, 10, 20, len(full) / 2, len(full) - 1} {
		if cut >= len(full) {
			continue
		}
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestBinaryHeaderCountsAreNotAllocations: a 24-byte body whose header
// claims the maximum author and venue counts used to allocate their
// name tables up front — 4 GiB each — before the first read failed.
// It must fail cheaply instead.
func TestBinaryHeaderCountsAreNotAllocations(t *testing.T) {
	for _, counts := range [][2]uint32{{1 << 28, 0}, {0, 1 << 28}} {
		var b bytes.Buffer
		b.WriteString(binaryMagic)
		for _, v := range []any{uint32(0), counts[0], counts[1], uint64(0)} {
			if err := binary.Write(&b, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
		size := b.Len()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ReadBinary(&b); err == nil {
			t.Fatalf("counts %v with no names accepted", counts)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("counts %v: rejecting a %d-byte body allocated %d bytes", counts, size, grew)
		}
	}
}

func TestBinaryNeverPanicsOnGarbage(t *testing.T) {
	f := func(seed int64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, rng.Intn(200))
		rng.Read(buf)
		// Half the cases get a valid magic so deeper paths are exercised.
		if seed%2 == 0 && len(buf) >= 4 {
			copy(buf, binaryMagic)
		}
		net, err := ReadBinary(bytes.NewReader(buf))
		if err == nil && net != nil {
			return net.Validate() == nil
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestSaveBinaryAtomicRoundTrip(t *testing.T) {
	net := sampleNet(t)
	path := filepath.Join(t.TempDir(), "snap.anb")
	if err := SaveBinaryAtomic(path, net); err != nil {
		t.Fatal(err)
	}
	rt, err := LoadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rt.N() != net.N() || rt.Edges() != net.Edges() {
		t.Fatalf("round trip: N=%d edges=%d, want %d, %d", rt.N(), rt.Edges(), net.N(), net.Edges())
	}
	// Overwriting an existing snapshot must leave no temp files behind.
	if err := SaveBinaryAtomic(path, net); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want 1 (no temp files)", len(entries))
	}
}

func TestSaveBinaryAtomicBadDir(t *testing.T) {
	net := sampleNet(t)
	if err := SaveBinaryAtomic(filepath.Join(t.TempDir(), "missing", "snap.anb"), net); err == nil {
		t.Error("write into a missing directory accepted")
	}
}

// TestWriteFileAtomicFailedWriteKeepsOld: a write func that fails after
// emitting some bytes must leave the previous file byte-identical and no
// temporary file in the directory.
func TestWriteFileAtomicFailedWriteKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	old := []byte("{\"epoch\": 1}\n")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(old)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("{\"epoch\": 2, \"tor")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFileAtomic error = %v, want the write func's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("after a failed write the file holds %q, want the old %q", got, old)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1 (no temp files)", len(entries))
	}
}
