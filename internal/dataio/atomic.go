package dataio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"attrank/internal/graph"
)

// SaveBinaryAtomic writes the network in the binary (.anb) format to path
// through WriteFileAtomic. This is the snapshot path of the live-ingestion
// subsystem.
func SaveBinaryAtomic(path string, net *graph.Network) error {
	return WriteFileAtomic(path, func(w io.Writer) error { return WriteBinary(w, net) })
}

// WriteFileAtomic replaces path with the bytes write produces, with
// crash-safe semantics: the bytes go to a temporary file in the same
// directory, which is fsync'd and renamed over path, and the directory is
// then synced so the rename itself is durable. A reader (or a recovery
// after a crash mid-write) sees either the old complete file or the new
// complete file, never a torn one. If any step fails, path keeps its old
// contents and the temporary file is removed.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("dataio: atomic write: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if err := write(tmp); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("dataio: atomic write sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("dataio: atomic write close: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("dataio: atomic write rename: %w", err)
	}
	// Best-effort directory sync so the rename itself is durable.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// LoadBinaryFile reads a binary (.anb) network from path.
func LoadBinaryFile(path string) (*graph.Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataio: %w", err)
	}
	defer f.Close()
	return ReadBinary(f)
}
