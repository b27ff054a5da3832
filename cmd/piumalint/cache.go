package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"piumagcn/internal/lint"
)

// resultCache is a content-addressed store of analysis results: one
// JSON file of diagnostics per key, written atomically. Keys bind the
// piumalint executable, the analyzer set and the content hash of every
// file the analysis could have seen, so a hit is byte-for-byte
// equivalent to re-running.
type resultCache struct {
	dir  string
	tool string // SHA-256 of the running executable
}

// newResultCache opens the cache in dir, keyed to the running
// executable: any change to the analyzers' code, their messages or the
// diagnostic format builds a different binary, so it can only miss.
func newResultCache(dir string) (*resultCache, error) {
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
	return &resultCache{dir: dir, tool: hex.EncodeToString(h.Sum(nil))}, nil
}

// key builds the key for running the named analyzers against content
// identified by closureHash ("" without a cache).
func (c *resultCache) key(kind string, analyzers []*lint.Analyzer, closureHash string) string {
	if c == nil {
		return ""
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00", c.tool, kind)
	for _, a := range analyzers {
		fmt.Fprintf(h, "%s\x00", a.Name)
	}
	fmt.Fprintf(h, "%s", closureHash)
	return hex.EncodeToString(h.Sum(nil))
}

// get returns the cached diagnostics for key, or false on any miss
// (absent, unreadable, undecodable — the cache is advisory).
func (c *resultCache) get(key string) ([]lint.Diagnostic, bool) {
	if c == nil {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(c.dir, key+".json"))
	if err != nil {
		return nil, false
	}
	var diags []lint.Diagnostic
	if err := json.Unmarshal(data, &diags); err != nil {
		return nil, false
	}
	return diags, true
}

// put stores diagnostics under key (best-effort: cache errors never
// fail the lint run).
func (c *resultCache) put(key string, diags []lint.Diagnostic) {
	if c == nil {
		return
	}
	if diags == nil {
		diags = []lint.Diagnostic{}
	}
	data, err := json.Marshal(diags)
	if err != nil {
		return
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, "entry-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), filepath.Join(c.dir, key+".json")); err != nil {
		os.Remove(tmp.Name())
	}
}
