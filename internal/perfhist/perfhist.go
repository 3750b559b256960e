// Package perfhist is the repository's performance-history ledger: an
// append-only, schema-versioned JSONL store where every benchmarking run
// deposits one entry — the run's identity (git commit, caller-supplied
// timestamp, toolchain, CPU, options fingerprint) plus its aggregated
// benchfmt report, samples included. The ledger is the durable timeline
// behind `make bench-trend` (`benchdiff -append` writes it, `ccreport
// LEDGER` renders it): where BENCH_*.json is one point and a benchdiff
// comparison a pairwise delta, the ledger answers per-metric
// time series, flags changepoints (mean steps whose 95% confidence
// intervals do not overlap), and ranks the worst recent regressions.
//
// Appends are atomic (a single O_APPEND write of one line), entries are
// validated both on append and on load, and unknown schema versions are
// rejected rather than misread — the ledger is a cross-run comparison
// artifact, like internal/obs bundles, and silently mixing layouts would
// poison every trend computed from it.
package perfhist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/benchfmt"
)

// SchemaVersion is the entry format version recorded in every ledger
// line. Load rejects any other version.
const SchemaVersion = 1

// Entry is one ledger line: the identity of a benchmarking run and its
// full aggregated report. Identity fields follow obs.Identity's
// convention — all caller-supplied metadata, none of it derived inside
// this package, so replaying the same report under the same identity
// produces a byte-identical line.
type Entry struct {
	Schema int `json:"schema"`

	// Commit is the git commit the measured tree was built from.
	Commit string `json:"commit"`

	// Timestamp is the caller-supplied RFC3339 instant of the run.
	Timestamp string `json:"timestamp"`

	// GoVersion and CPU record the producing toolchain and host.
	GoVersion string `json:"go_version,omitempty"`
	CPU       string `json:"cpu,omitempty"`

	// OptionsHash fingerprints the codec/options configuration the run
	// measured (core.Options.Fingerprint), when one applies.
	OptionsHash string `json:"options_hash,omitempty"`

	// Report is the run's aggregated benchfmt report, samples included.
	Report *benchfmt.Report `json:"report"`
}

// Validate checks the invariants every ledger entry must hold. Both
// Append and Load call it, so a malformed entry can neither enter the
// ledger nor be computed over.
func (e *Entry) Validate() error {
	if e.Schema != SchemaVersion {
		return fmt.Errorf("perfhist: entry schema version %d, this build reads %d", e.Schema, SchemaVersion)
	}
	if e.Commit == "" {
		return fmt.Errorf("perfhist: entry has no commit")
	}
	if _, err := time.Parse(time.RFC3339, e.Timestamp); err != nil {
		return fmt.Errorf("perfhist: entry timestamp %q is not RFC3339: %w", e.Timestamp, err)
	}
	if e.Report == nil || len(e.Report.Benchmarks) == 0 {
		return fmt.Errorf("perfhist: entry carries no benchmarks")
	}
	return nil
}

// Append validates the entry and appends it to the ledger at path as one
// JSON line, creating the file if needed. The write is a single
// O_APPEND syscall, so concurrent appenders interleave whole lines, and
// a validated ledger is never left with a torn entry.
func Append(path string, e *Entry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("perfhist: marshaling entry: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("perfhist: appending to %s: %w", path, err)
	}
	return f.Close()
}

// Load reads a ledger, validating every entry; errors name the file and
// the 1-based line that failed. Blank lines are ignored. Entries are
// returned in file (append) order — the ledger's chronology.
func Load(path string) ([]Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var entries []Entry
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if len(text) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal([]byte(text), &e); err != nil {
			return nil, fmt.Errorf("perfhist: %s:%d: %w", path, line, err)
		}
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("perfhist: %s:%d: %w", path, line, err)
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("perfhist: %s: %w", path, err)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("perfhist: %s: ledger holds no entries", path)
	}
	return entries, nil
}
