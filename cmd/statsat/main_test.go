package main

import (
	"os"
	"path/filepath"
	"testing"

	"statsat/internal/engine"
	"statsat/internal/netio"
)

// loadKey runs the CLI's key path: keyText picks -keyfile or -key, and
// netio.ParseKey checks the text against the netlist's key width.
func loadKey(keyStr, keyFile string, width int) ([]bool, error) {
	s, err := keyText(keyStr, keyFile)
	if err != nil {
		return nil, err
	}
	return netio.ParseKey(s, width)
}

func TestLoadKeyFromString(t *testing.T) {
	key, err := loadKey("1010", "", 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, false}
	for i := range want {
		if key[i] != want[i] {
			t.Fatalf("key = %v", key)
		}
	}
}

// TestLoadKeyFromFile: -keyfile wins over -key and loses lockgen's
// trailing newline.
func TestLoadKeyFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k")
	if err := os.WriteFile(path, []byte("011\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := keyText("1010", path); err != nil || got != "011" {
		t.Errorf("keyText(-keyfile) = %q, %v, want 011", got, err)
	}
	key, err := loadKey("1010", path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if key[0] || !key[1] || !key[2] {
		t.Errorf("key = %v, want 011", key)
	}
}

func TestLoadKeyErrors(t *testing.T) {
	if _, err := loadKey("", "", 3); err == nil {
		t.Error("want error for missing key")
	}
	if _, err := loadKey("10", "", 3); err == nil {
		t.Error("want error for width mismatch")
	}
	if _, err := loadKey("1x0", "", 3); err == nil {
		t.Error("want error for non-binary key")
	}
	if _, err := loadKey("", "/nonexistent/key/file", 3); err == nil {
		t.Error("want error for unreadable file")
	}
}

// TestFormatKey: the key text statsat prints is the text -key accepts.
func TestFormatKey(t *testing.T) {
	if got := engine.BitString([]bool{true, false, true}); got != "101" {
		t.Errorf("BitString = %q", got)
	}
	if got := engine.BitString(nil); got != "" {
		t.Errorf("BitString(nil) = %q", got)
	}
	key, err := loadKey("101", "", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := engine.BitString(key); got != "101" {
		t.Errorf("BitString(loadKey(101)) = %q", got)
	}
}
