// Package netio dispatches netlist reading/writing between the
// supported exchange formats (.bench and structural Verilog) by file
// extension or explicit format name, and decodes the 0/1 key string
// that travels with a locked netlist (lockgen's -keyout file, the
// statsat -key flag, statsatd's key field). All cmd/ tools and the
// statsatd upload path go through it.
package netio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"statsat/internal/bench"
	"statsat/internal/circuit"
	"statsat/internal/verilog"
)

// Format identifies a netlist serialisation.
type Format string

// Supported formats.
const (
	Bench   Format = "bench"
	Verilog Format = "verilog"
)

// FormatForPath infers the format from a file extension (".v"/".sv" →
// Verilog, everything else → bench, matching benchmark-suite
// conventions).
func FormatForPath(path string) Format {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".v", ".sv", ".vlg":
		return Verilog
	}
	return Bench
}

// ParseFormat validates an explicit format name ("" means: defer to
// the path).
func ParseFormat(name string) (Format, error) {
	switch strings.ToLower(name) {
	case "":
		return "", nil
	case "bench":
		return Bench, nil
	case "verilog", "v":
		return Verilog, nil
	}
	return "", fmt.Errorf("netio: unknown format %q (want bench or verilog)", name)
}

// ReadFrom parses a netlist from any reader in the given format ("" =
// Bench) — the entry point for sources that never touch the
// filesystem, such as netlists uploaded to statsatd or embedded in
// tests. The path-based helpers (ReadFile) are thin wrappers over it.
func ReadFrom(r io.Reader, f Format) (*circuit.Circuit, error) {
	switch f {
	case Verilog:
		return verilog.Parse(r)
	case Bench, "":
		return bench.Parse(r)
	}
	return nil, fmt.Errorf("netio: unknown format %q", f)
}

// Write serialises c to w in the given format.
func Write(w io.Writer, c *circuit.Circuit, f Format) error {
	switch f {
	case Verilog:
		return verilog.Write(w, c)
	case Bench, "":
		return bench.Write(w, c)
	}
	return fmt.Errorf("netio: unknown format %q", f)
}

// ReadFile loads a netlist, inferring the format from the path unless
// explicit is non-empty.
func ReadFile(path string, explicit Format) (*circuit.Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	format := explicit
	if format == "" {
		format = FormatForPath(path)
	}
	c, err := ReadFrom(f, format)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// WriteFile stores a netlist, inferring the format from the path
// unless explicit is non-empty.
func WriteFile(path string, c *circuit.Circuit, explicit Format) error {
	format := explicit
	if format == "" {
		format = FormatForPath(path)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, c, format); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ParseKey decodes a key written as a 0/1 string, bit i first (the
// format lockgen writes and engine.BitString renders), checking it has
// exactly width bits — one per key input of the locked netlist.
func ParseKey(s string, width int) ([]bool, error) {
	if len(s) != width {
		return nil, fmt.Errorf("key has %d bits, circuit has %d key inputs", len(s), width)
	}
	key := make([]bool, len(s))
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			key[i] = true
		default:
			return nil, fmt.Errorf("key must be a 0/1 string, found %q", c)
		}
	}
	return key, nil
}
