package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Checkpoint/resume for long sweeps: runJournaled appends one JSON line per
// completed job to a journal file, and on a later invocation with the same
// job list skips every job the journal already holds.  Every job carries its
// own seed (a Matrix derives it from (BaseSeed, replication) at expansion
// time), so a resumed run is bit-identical to an uninterrupted one — the
// journal only decides *which* jobs still need running, never what they
// compute.  A row recorded before a SweepRow field existed reads 0 there.

// journalEntry is one completed job on disk.  The identity fields are
// checked against the job list on resume, so a journal written for a
// different sweep (or a stale one) fails loudly instead of silently
// skipping the wrong jobs.
type journalEntry struct {
	Index    int    `json:"index"`
	Scenario string `json:"scenario"`
	Policy   string `json:"policy"`
	Seed     uint64 `json:"seed"`
	// HorizonS is the job's simulated horizon in seconds.  Name, policy and
	// seed alone would accept rows from the same sweep run at a different
	// -hours/-horizon, which simulates a different experiment.
	HorizonS float64  `json:"horizonS"`
	Row      SweepRow `json:"row"`
}

// loadJournal reads the journal, tolerating a torn tail (the crash artifact
// the journal exists for).  Entries whose identity does not match the job at
// their index are an error.  The second return value is the byte length of
// the newline-terminated valid prefix: the torn tail must be truncated away
// before the journal is appended to again, otherwise the next entry would
// concatenate onto the torn bytes and corrupt the line that records it.  A
// final line that parses but lacks its newline is counted as torn too — its
// job simply re-runs (bit-identical, per-job derived seeds), which is
// cheaper than distinguishing "lost the newline" from "lost half the line".
func loadJournal(path string, jobs []Job) (map[int]SweepRow, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return map[int]SweepRow{}, 0, nil
		}
		return nil, 0, err
	}

	done := map[int]SweepRow{}
	line := 0
	off := 0
	var validBytes int64
	for off < len(data) {
		line++
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// Newline-less tail: torn, regardless of whether the JSON
			// happens to parse.  Everything before it stays valid.
			break
		}
		raw := data[off : off+nl]
		off += nl + 1
		if len(raw) > 0 {
			var e journalEntry
			if err := json.Unmarshal(raw, &e); err != nil {
				// A complete (newline-terminated) line that does not parse
				// is not a crash artifact — the file is not a journal we
				// wrote.
				return nil, 0, fmt.Errorf("experiment: journal %s line %d is corrupt: %w", path, line, err)
			}
			if e.Index < 0 || e.Index >= len(jobs) {
				return nil, 0, fmt.Errorf("experiment: journal %s entry %d indexes job %d of %d — journal belongs to a different sweep",
					path, line, e.Index, len(jobs))
			}
			job := jobs[e.Index]
			if e.Scenario != job.Scenario.Name || e.Policy != job.Policy.Key || e.Seed != job.Scenario.Seed ||
				e.HorizonS != job.Scenario.Horizon.Seconds() {
				return nil, 0, fmt.Errorf("experiment: journal %s entry %d (%s/%s seed %d horizon %gs) does not match job %d (%s/%s seed %d horizon %gs) — journal belongs to a different sweep",
					path, line, e.Scenario, e.Policy, e.Seed, e.HorizonS,
					e.Index, job.Scenario.Name, job.Policy.Key, job.Scenario.Seed, job.Scenario.Horizon.Seconds())
			}
			done[e.Index] = e.Row
		}
		validBytes = int64(off)
	}
	return done, validBytes, nil
}

// runJournaled skips every job already recorded in the journal at path,
// runs the remainder on the parallel pool (each completion is appended to
// the journal as it lands, so a kill at any point loses at most the
// in-flight jobs) and returns the full set of sweep rows in job order.  A
// cancelled context returns the rows completed so far along with the
// context error; re-invoking with the same jobs and journal resumes from
// the missing jobs only.
func runJournaled(ctx context.Context, jobs []Job, opt Options, path string) ([]SweepRow, error) {
	done, validBytes, err := loadJournal(path, jobs)
	if err != nil {
		return nil, err
	}
	// Chop a torn tail off before appending: O_APPEND after a crashed
	// half-line would otherwise concatenate the next entry onto the torn
	// bytes, losing that entry on every future load.
	if st, err := os.Stat(path); err == nil && st.Size() > validBytes {
		if err := os.Truncate(path, validBytes); err != nil {
			return nil, err
		}
	}

	// Entries are keyed by the job's position in the list, so a hand-built
	// list whose Index fields were left 0 still journals every job.
	pending := make([]int, 0, len(jobs)-len(done))
	for i := range jobs {
		if _, ok := done[i]; !ok {
			pending = append(pending, i)
		}
	}

	rows := make([]SweepRow, len(jobs))
	completed := make([]bool, len(jobs))
	for idx, row := range done {
		rows[idx] = row
		completed[idx] = true
	}

	if len(pending) > 0 {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var mu sync.Mutex
		enc := json.NewEncoder(f)

		runErr := ForEach(ctx, len(pending), opt.Workers, func(p int) error {
			i := pending[p]
			job := jobs[i]
			res, jobErr := Run(job.Scenario, job.Policy)
			row := RowFromJobResult(JobResult{Job: job, Result: res, Err: jobErr})

			mu.Lock()
			defer mu.Unlock()
			rows[i] = row
			completed[i] = true
			// One JSON object per line, flushed per job: a kill mid-sweep
			// loses at most the jobs still in flight.
			return enc.Encode(journalEntry{
				Index:    i,
				Scenario: job.Scenario.Name,
				Policy:   job.Policy.Key,
				Seed:     job.Scenario.Seed,
				HorizonS: job.Scenario.Horizon.Seconds(),
				Row:      row,
			})
		})
		if runErr != nil {
			// Return what completed; the journal already holds it, so the
			// next invocation resumes from the rest.
			partial := make([]SweepRow, 0, len(jobs))
			for idx, row := range rows {
				if completed[idx] {
					partial = append(partial, row)
				}
			}
			return partial, runErr
		}
	}
	return rows, nil
}
