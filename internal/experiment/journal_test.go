package experiment

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/simclock"
)

// journalJobs is a small but real sweep: 2 scenarios x 2 policies x 2
// replications = 8 jobs, each a short simulation.
func journalJobs(t *testing.T) []Job {
	return expand(t, Matrix{
		Scenarios:    []string{"figure3", "homogeneous"},
		Policies:     []string{"policy1", "policy2"},
		Replications: 2,
		BaseSeed:     42,
		Horizon:      2 * simclock.Minute,
	})
}

func expand(t *testing.T, m Matrix) []Job {
	t.Helper()
	jobs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func journalLines(t *testing.T, path string) []journalEntry {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []journalEntry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e journalEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("corrupt journal line: %v", err)
		}
		out = append(out, e)
	}
	return out
}

// TestJournalKillMidSweep cancels a sweep partway through, then resumes it
// with the same journal: the resumed run must execute only the missing jobs
// and the merged rows must be identical to an uninterrupted run — the
// per-job derived seeds make resumption consistent by construction.
func TestJournalKillMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 8-job sweep three times")
	}
	jobs := journalJobs(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.journal")

	// Kill after the second completion: the journal's encoder runs under the
	// mutex, so cancelling from there guarantees at least two entries are on
	// disk and the remaining dispatches see a dead context.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	completionsSeen := 0
	// Wrap the cancellation into a context watched by ForEach: we cancel as
	// soon as the journal holds 2 entries by polling it from a goroutine
	// fed by the file's growth — simplest deterministic-enough trigger is
	// cancelling from inside the first run via a tiny worker count and a
	// side effect.  Run with Workers=1 so completions are strictly ordered.
	rows, err := runJournalCancelling(ctx, cancel, jobs, path, 2, &completionsSeen)
	if err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
	if len(rows) >= len(jobs) {
		t.Fatalf("cancelled sweep returned %d rows, want < %d", len(rows), len(jobs))
	}
	persisted := journalLines(t, path)
	if len(persisted) == 0 || len(persisted) >= len(jobs) {
		t.Fatalf("journal holds %d entries after the kill, want in (0, %d)", len(persisted), len(jobs))
	}

	// Resume: only the missing jobs run.
	resumed, err := RunSweep(context.Background(), jobs, Options{Workers: 2}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != len(jobs) {
		t.Fatalf("resumed sweep returned %d rows, want %d", len(resumed), len(jobs))
	}
	after := journalLines(t, path)
	if len(after) != len(jobs) {
		t.Fatalf("journal holds %d entries after resume, want %d", len(after), len(jobs))
	}
	ranOnResume := len(after) - len(persisted)
	if ranOnResume != len(jobs)-len(persisted) {
		t.Fatalf("resume ran %d jobs, want exactly the %d missing ones", ranOnResume, len(jobs)-len(persisted))
	}

	// The merged rows must equal an uninterrupted run's, byte for byte.
	clean, err := RunSweep(context.Background(), jobs, Options{Workers: 2}, filepath.Join(dir, "clean.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, clean) {
		t.Fatalf("resumed rows differ from a clean run\nresumed: %+v\nclean:   %+v", resumed, clean)
	}
}

// runJournalCancelling runs the jobs with Workers=1 and cancels the
// context after killAfter completions by watching the journal file between
// jobs (Workers=1 serialises completions, so the cancellation lands at a
// deterministic point).
func runJournalCancelling(ctx context.Context, cancel context.CancelFunc, jobs []Job, path string, killAfter int, seen *int) ([]SweepRow, error) {
	// Run the sweep in a goroutine and watch the journal grow; every
	// completed line is already durable when we pull the plug.
	type result struct {
		rows []SweepRow
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		rows, err := RunSweep(ctx, jobs, Options{Workers: 1}, path)
		ch <- result{rows, err}
	}()
	for {
		select {
		case res := <-ch:
			return res.rows, res.err
		default:
		}
		if data, err := os.ReadFile(path); err == nil {
			if n := bytes.Count(data, []byte("\n")); n >= killAfter {
				*seen = n
				cancel()
				res := <-ch
				return res.rows, res.err
			}
		}
	}
}

// TestJournalRejectsForeignMatrix: a journal recorded for one matrix must
// not silently poison a different one.
func TestJournalRejectsForeignMatrix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.journal")
	m := Matrix{Scenarios: []string{"figure3"}, Policies: []string{"policy1"}, BaseSeed: 1, Horizon: simclock.Minute}
	if _, err := RunSweep(context.Background(), expand(t, m), Options{Workers: 1}, path); err != nil {
		t.Fatal(err)
	}
	other := m
	other.BaseSeed = 2 // different derived seeds
	if _, err := RunSweep(context.Background(), expand(t, other), Options{Workers: 1}, path); err == nil {
		t.Fatal("journal for a different matrix was accepted")
	}
	// Same matrix at a different horizon simulates a different experiment:
	// name/policy/seed all match, only the horizon identity can catch it.
	longer := m
	longer.Horizon = 2 * simclock.Minute
	if _, err := RunSweep(context.Background(), expand(t, longer), Options{Workers: 1}, path); err == nil {
		t.Fatal("journal recorded at a different horizon was accepted")
	}
}

// TestJournalToleratesTornTail: a crash can leave a half-written final
// line; loading must use the intact prefix.
func TestJournalToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.journal")
	jobs := expand(t, Matrix{Scenarios: []string{"figure3"}, Policies: []string{"policy1", "policy2"}, BaseSeed: 1, Horizon: simclock.Minute})
	if _, err := RunSweep(context.Background(), jobs, Options{Workers: 1}, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// First tear: drop only the trailing newline, leaving the final JSON
	// intact — the crash-between-bytes-and-newline case.  The loader must
	// treat it as torn (counting it would leave validBytes past the file
	// end and skip the truncation that keeps appends safe).
	trimmed := bytes.TrimRight(data, "\n")
	if err := os.WriteFile(path, trimmed, 0o644); err != nil {
		t.Fatal(err)
	}
	doneNL, validNL, err := loadJournal(path, jobs)
	if err != nil {
		t.Fatalf("newline-less tail rejected: %v", err)
	}
	if len(doneNL) != len(jobs)-1 || validNL >= int64(len(trimmed)) {
		t.Fatalf("newline-less tail: loaded %d entries, validBytes %d (file %d)", len(doneNL), validNL, len(trimmed))
	}

	// Second tear: also lose half the line's bytes.
	cut := trimmed[:len(trimmed)-10]
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	done, validBytes, err := loadJournal(path, jobs)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if len(done) != len(jobs)-1 {
		t.Fatalf("loaded %d entries from torn journal, want %d", len(done), len(jobs)-1)
	}
	if validBytes >= int64(len(cut)) {
		t.Fatalf("validBytes %d does not exclude the torn tail (file is %d bytes)", validBytes, len(cut))
	}

	// Resuming must chop the torn tail, re-run exactly the lost job and
	// leave a journal that loads clean — repeatedly.  (Without the truncate,
	// the re-run entry concatenates onto the torn bytes, the job is re-run
	// on every resume and the journal eventually hard-errors.)
	for i := 0; i < 2; i++ {
		rows, err := RunSweep(context.Background(), jobs, Options{Workers: 1}, path)
		if err != nil {
			t.Fatalf("resume %d over torn journal: %v", i, err)
		}
		if len(rows) != len(jobs) {
			t.Fatalf("resume %d returned %d rows, want %d", i, len(rows), len(jobs))
		}
		if entries := journalLines(t, path); len(entries) != len(jobs) {
			t.Fatalf("resume %d left %d journal entries, want %d", i, len(entries), len(jobs))
		}
	}
}

// TestJournalResumesRowsWithoutNewerFields: a journal whose rows predate
// the dependability and gossip columns still resumes.  Those fields read 0,
// and no job re-runs.
func TestJournalResumesRowsWithoutNewerFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	jobs := expand(t, Matrix{Scenarios: []string{"global-gossip"}, Policies: []string{"policy2"}, BaseSeed: 1, Horizon: 2 * simclock.Minute})
	fresh, err := RunSweep(context.Background(), jobs, Options{Workers: 1}, path)
	if err != nil {
		t.Fatal(err)
	}
	if fresh[0].GossipSent == 0 {
		t.Fatalf("row carries no gossip counts to drop: %+v", fresh[0])
	}
	var old bytes.Buffer
	for _, e := range journalLines(t, path) {
		raw, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		var entry map[string]any
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber() // a seed does not fit a float64
		if err := dec.Decode(&entry); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"proactiveRejuvenations", "crashes", "gossipMeanLagSeconds", "gossipSent", "gossipMaxDivergence"} {
			delete(entry["row"].(map[string]any), key)
		}
		line, err := json.Marshal(entry)
		if err != nil {
			t.Fatal(err)
		}
		old.Write(append(line, '\n'))
	}
	if err := os.WriteFile(path, old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := RunSweep(context.Background(), jobs, Options{Workers: 1}, path)
	if err != nil {
		t.Fatal(err)
	}
	want := fresh[0]
	want.ProactiveRejuvenations, want.Crashes = 0, 0
	want.GossipMeanLagSeconds, want.GossipSent, want.GossipMaxDivergence = 0, 0, 0
	if !reflect.DeepEqual(resumed, []SweepRow{want}) {
		t.Fatalf("resumed rows = %+v, want %+v", resumed, want)
	}
	if n := len(journalLines(t, path)); n != 1 {
		t.Fatalf("resume appended to the journal (%d entries): the old row was re-run", n)
	}
}

// TestJournalKeysJobsByPosition: a hand-built job list need not number its
// jobs; the journal records and resumes each by its position.
func TestJournalKeysJobsByPosition(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	jobs := expand(t, Matrix{Scenarios: []string{"figure3"}, Policies: []string{"policy1", "policy2"}, BaseSeed: 1, Horizon: simclock.Minute})
	for i := range jobs {
		jobs[i].Index = 0
	}
	want, err := RunSweep(context.Background(), jobs, Options{Workers: 1}, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // record, then resume from the journal alone
		got, err := RunSweep(context.Background(), jobs, Options{Workers: 1}, path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: journaled rows = %+v, want %+v", i, got, want)
		}
		if n := len(journalLines(t, path)); n != len(jobs) {
			t.Fatalf("pass %d: journal holds %d entries, want %d", i, n, len(jobs))
		}
	}
}

// TestSweepRowsAndWriters covers the flattening and the CSV/JSON emitters.
func TestSweepRowsAndWriters(t *testing.T) {
	m := Matrix{Scenarios: []string{"figure3"}, Policies: []string{"policy2"}, Betas: []float64{0.25, 0.75}, BaseSeed: 7, Horizon: 2 * simclock.Minute}
	results, err := RunParallel(context.Background(), expand(t, m), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := RowsFromJobResults(results)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if rows[0].Beta != 0.25 || rows[1].Beta != 0.75 {
		t.Fatalf("betas = %v / %v, want 0.25 / 0.75", rows[0].Beta, rows[1].Beta)
	}
	if rows[0].Eras == 0 || rows[0].Err != "" {
		t.Fatalf("row 0 looks unrun: %+v", rows[0])
	}

	var csvBuf bytes.Buffer
	if err := WriteSweepCSV(&csvBuf, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "index,scenario,policy,seed,beta,rep") {
		t.Fatalf("unexpected CSV header %q", lines[0])
	}

	var jsonBuf bytes.Buffer
	if err := WriteSweepJSON(&jsonBuf, rows); err != nil {
		t.Fatal(err)
	}
	var back []SweepRow
	if err := json.Unmarshal(jsonBuf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rows) {
		t.Fatal("JSON round trip changed the rows")
	}
}

func TestParseLists(t *testing.T) {
	if got := ParseList(" figure3, figure4 ,,"); !reflect.DeepEqual(got, []string{"figure3", "figure4"}) {
		t.Fatalf("ParseList = %v", got)
	}
	got, err := ParseFloatList("0.25, 0.75")
	if err != nil || !reflect.DeepEqual(got, []float64{0.25, 0.75}) {
		t.Fatalf("ParseFloatList = %v, %v", got, err)
	}
	if _, err := ParseFloatList("0.25,x"); err == nil {
		t.Fatal("ParseFloatList accepted garbage")
	}
}
