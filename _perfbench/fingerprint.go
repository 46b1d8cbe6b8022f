package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// fpStore remembers each attack's trajectory fingerprint across runs
// of one workload and seed, so that every run checks its trajectories
// against the earlier runs of the same build. It lives under
// .bench_build/fingerprints/<hash of this binary>/.
type fpStore struct {
	path  string
	seen  map[int]string
	dirty bool
}

func openFingerprints(workload string, seed int64) (*fpStore, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil, err
	}
	dir := filepath.Join(".bench_build", "fingerprints", hex.EncodeToString(h.Sum(nil))[:16])
	s := &fpStore{path: filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), seen: map[int]string{}}
	data, err := os.ReadFile(s.path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return s, nil
	case err != nil:
		return nil, err
	}
	if err := json.Unmarshal(data, &s.seen); err != nil {
		return nil, fmt.Errorf("%s: %w", s.path, err)
	}
	return s, nil
}

// check records fp as attack i's trajectory, or reports a mismatch
// with the one an earlier run recorded.
func (s *fpStore) check(res *result, i int, fp fingerprint) {
	got := fp.String()
	want, ok := s.seen[i]
	switch {
	case !ok:
		s.seen[i] = got
		s.dirty = true
	case want != got:
		res.problem("attack %d: trajectory differs from an earlier run at this seed\n  earlier: %s\n  now:     %s", i, want, got)
	}
}

func (s *fpStore) save() error {
	if !s.dirty {
		return nil
	}
	data, err := json.MarshalIndent(s.seen, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(s.path), 0o755); err != nil {
		return err
	}
	tmp := s.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.path)
}
