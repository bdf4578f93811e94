package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"relsyn/internal/obs"
	"relsyn/internal/pipeline"
)

func openTest(t *testing.T, dir string, mutate func(*Options)) (*Store, []Record) {
	t.Helper()
	o := Options{Dir: dir, Metrics: obs.NewRegistry()}
	if mutate != nil {
		mutate(&o)
	}
	st, recs, err := Open(o)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { st.Close() })
	return st, recs
}

func mustAppend(t *testing.T, st *Store, rec Record) {
	t.Helper()
	if err := st.Append(rec); err != nil {
		t.Fatalf("Append(%+v): %v", rec, err)
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, recs := openTest(t, dir, nil)
	if len(recs) != 0 {
		t.Fatalf("fresh store recovered %d records, want 0", len(recs))
	}
	jo := pipeline.JobOptions{}
	jo.Normalize()
	mustAppend(t, st, Record{ID: "job-1", Key: "k1", Status: StatusQueued,
		SpecPLA: ".i 1\n.o 1\n1 1\n.e\n", Options: &jo, Priority: 7, CreatedUnixMs: 111})
	mustAppend(t, st, Record{ID: "job-2", Key: "k2", Status: StatusQueued})
	mustAppend(t, st, Record{ID: "job-1", Status: StatusRunning})
	mustAppend(t, st, Record{ID: "job-1", Status: StatusDone,
		Result: &pipeline.JobResult{}, FinishedUnixMs: 222})
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, recovered := openTest(t, dir, nil)
	if len(recovered) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recovered))
	}
	byID := map[string]Record{}
	for _, r := range recovered {
		byID[r.ID] = r
	}
	j1 := byID["job-1"]
	// Transition appends carried only deltas; replay must merge them onto
	// the initial full record.
	if j1.Status != StatusDone || j1.Key != "k1" || j1.SpecPLA == "" ||
		j1.Options == nil || j1.Priority != 7 || j1.Result == nil ||
		j1.CreatedUnixMs != 111 || j1.FinishedUnixMs != 222 {
		t.Fatalf("job-1 merged wrong: %+v", j1)
	}
	if byID["job-2"].Status != StatusQueued {
		t.Fatalf("job-2 = %+v, want queued", byID["job-2"])
	}
}

// TestTornTailTruncated hand-corrupts the WAL tail three ways (short
// header, short payload, bad CRC) and checks recovery keeps every
// complete frame and drops only the tail.
func TestTornTailTruncated(t *testing.T) {
	frame := func(rec Record) []byte {
		payload := []byte(fmt.Sprintf(`{"seq":%d,"id":%q,"status":%q}`, rec.Seq, rec.ID, rec.Status))
		f := make([]byte, frameHeaderLen+len(payload))
		binary.LittleEndian.PutUint32(f[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(f[4:8], crc32.ChecksumIEEE(payload))
		copy(f[frameHeaderLen:], payload)
		return f
	}
	cases := []struct {
		name string
		tail func([]byte) []byte // corrupts a complete frame
	}{
		{"short header", func(f []byte) []byte { return f[:frameHeaderLen/2] }},
		{"short payload", func(f []byte) []byte { return f[:len(f)-3] }},
		{"bad crc", func(f []byte) []byte {
			c := append([]byte(nil), f...)
			c[len(c)-1] ^= 0xff
			return c
		}},
		{"zero length", func(f []byte) []byte {
			c := append([]byte(nil), f...)
			binary.LittleEndian.PutUint32(c[0:4], 0)
			return c[:frameHeaderLen]
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			good1 := frame(Record{Seq: 1, ID: "a", Status: StatusQueued})
			good2 := frame(Record{Seq: 2, ID: "b", Status: StatusQueued})
			bad := tc.tail(frame(Record{Seq: 3, ID: "c", Status: StatusQueued}))
			wal := append(append(append([]byte(nil), good1...), good2...), bad...)
			if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
				t.Fatal(err)
			}

			st, recs := openTest(t, dir, nil)
			if len(recs) != 2 {
				t.Fatalf("recovered %d records, want 2 (torn tail dropped)", len(recs))
			}
			if got := st.Stats().TornTails; got != 1 {
				t.Fatalf("TornTails = %d, want 1", got)
			}
			// The file must have been truncated back to the good prefix so
			// new appends start at a clean frame boundary.
			fi, err := os.Stat(filepath.Join(dir, walName))
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(len(good1) + len(good2)); fi.Size() != want {
				t.Fatalf("wal size after truncate = %d, want %d", fi.Size(), want)
			}
			// And the store must stay appendable across another cycle.
			mustAppend(t, st, Record{ID: "d", Status: StatusQueued})
			st.Close()
			_, again := openTest(t, dir, nil)
			if len(again) != 3 {
				t.Fatalf("after re-append recovered %d records, want 3", len(again))
			}
		})
	}
}

// Job options never persist the retired request fields "kernels",
// "use_bdd" and "max_bdd_nodes": JobOptions has no such fields, so an
// appended record cannot carry them, and a WAL frame written before they
// were retired still replays — the record decoder ignores unknown names.
func TestReplayIgnoresRetiredOptionFields(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"seq":1,"id":"old","key":"k","status":"queued",` +
		`"options":{"method":"lcf","threshold":0.55,"kernels":"off","use_bdd":true,"max_bdd_nodes":4}}`)
	frame := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderLen:], payload)
	if err := os.WriteFile(filepath.Join(dir, walName), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	st, recs := openTest(t, dir, nil)
	if len(recs) != 1 || st.Stats().TornTails != 0 {
		t.Fatalf("recovered %d records, %d torn tails; want 1, 0", len(recs), st.Stats().TornTails)
	}
	want := pipeline.JobOptions{Method: "lcf", Threshold: 0.55}
	if o := recs[0].Options; o == nil || *o != want {
		t.Fatalf("recovered options %+v, want %+v", o, want)
	}
	jo := pipeline.JobOptions{Method: "rank", Fraction: 0.5}.Normalize()
	mustAppend(t, st, Record{ID: "new", Key: "k2", Status: StatusQueued, Options: &jo})
	st.Close()
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	appended := string(wal[len(frame):])
	if !strings.Contains(appended, `"method":"rank"`) {
		t.Fatalf("the new record's options are not in the WAL: %q", appended)
	}
	for _, name := range []string{`"kernels"`, `"use_bdd"`, `"max_bdd_nodes"`} {
		if strings.Contains(appended, name) {
			t.Fatalf("a new WAL record persisted %s", name)
		}
	}
}

func TestCheckpointCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, nil)
	for i := 0; i < 10; i++ {
		mustAppend(t, st, Record{ID: fmt.Sprintf("job-%d", i), Status: StatusQueued})
	}
	mustAppend(t, st, Record{ID: "job-0", Status: StatusDone})
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := st.Stats().WALBytes; got != 0 {
		t.Fatalf("WALBytes after checkpoint = %d, want 0", got)
	}
	// Post-checkpoint appends land in the fresh WAL and merge over the
	// snapshot on the next open.
	mustAppend(t, st, Record{ID: "job-1", Status: StatusFailed, Error: "boom"})
	st.Close()

	st2, recs := openTest(t, dir, nil)
	if len(recs) != 10 {
		t.Fatalf("recovered %d records, want 10", len(recs))
	}
	r, ok := st2.Get("job-1")
	if !ok || r.Status != StatusFailed || r.Error != "boom" {
		t.Fatalf("job-1 = %+v, want failed/boom", r)
	}
	if r, _ := st2.Get("job-0"); r.Status != StatusDone {
		t.Fatalf("job-0 = %+v, want done", r)
	}
}

// TestCheckpointCrashWindow simulates a crash between the snapshot
// rename and the WAL reset: both files present, WAL fully duplicating
// the snapshot. Replay must be a no-op on the duplicated frames.
func TestCheckpointCrashWindow(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, nil)
	mustAppend(t, st, Record{ID: "a", Status: StatusQueued, Key: "ka"})
	mustAppend(t, st, Record{ID: "a", Status: StatusDone})
	st.Close()

	// Write the snapshot by hand (what checkpointLocked would publish)
	// while leaving the WAL untouched — the crash-window state.
	snapSrc, _ := openTest(t, t.TempDir(), nil)
	mustAppend(t, snapSrc, Record{ID: "a", Status: StatusQueued, Key: "ka"})
	mustAppend(t, snapSrc, Record{ID: "a", Status: StatusDone})
	if err := snapSrc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(snapSrc.opts.Dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotName), snap, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, recs := openTest(t, dir, nil)
	if len(recs) != 1 {
		t.Fatalf("recovered %d records, want 1", len(recs))
	}
	if r, _ := st2.Get("a"); r.Status != StatusDone {
		t.Fatalf("a = %+v, want done (WAL replay over snapshot must not regress status)", r)
	}
}

func TestAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, func(o *Options) { o.SnapshotEvery = 4 })
	for i := 0; i < 9; i++ {
		mustAppend(t, st, Record{ID: fmt.Sprintf("j%d", i), Status: StatusQueued})
	}
	s := st.Stats()
	if s.Snapshots != 2 {
		t.Fatalf("Snapshots = %d after 9 appends with SnapshotEvery=4, want 2", s.Snapshots)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}
}

func TestStaleSnapshotTempRemoved(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, snapshotName+".tmp")
	if err := os.WriteFile(tmp, []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	openTest(t, dir, nil)
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale snapshot temp still present (err=%v)", err)
	}
}

func TestCorruptSnapshotIsHardError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(Options{Dir: dir})
	if err == nil {
		t.Fatal("Open succeeded on a corrupt snapshot; want hard error")
	}
}

func TestSyncIntervalFlushes(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, func(o *Options) {
		o.Sync = SyncInterval
		o.SyncInterval = 5 * time.Millisecond
	})
	mustAppend(t, st, Record{ID: "a", Status: StatusQueued})
	time.Sleep(50 * time.Millisecond) // let the flusher run
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, recs := openTest(t, dir, nil)
	if len(recs) != 1 {
		t.Fatalf("recovered %d records, want 1", len(recs))
	}
}

func TestParseSyncMode(t *testing.T) {
	for _, ok := range []string{"always", "interval", "off"} {
		if _, err := ParseSyncMode(ok); err != nil {
			t.Errorf("ParseSyncMode(%q): %v", ok, err)
		}
	}
	if _, err := ParseSyncMode("sometimes"); err == nil {
		t.Error("ParseSyncMode accepted an unknown mode")
	}
}

func TestAppendValidation(t *testing.T) {
	st, _ := openTest(t, t.TempDir(), nil)
	if err := st.Append(Record{Status: StatusQueued}); err == nil {
		t.Fatal("Append accepted a record without an ID")
	}
	st.Close()
	if err := st.Append(Record{ID: "x", Status: StatusQueued}); err == nil {
		t.Fatal("Append succeeded on a closed store")
	}
}

func TestTerminal(t *testing.T) {
	for status, want := range map[string]bool{
		StatusQueued: false, StatusRunning: false,
		StatusDone: true, StatusFailed: true, StatusExpired: true,
		"": false, "bogus": false,
	} {
		if got := Terminal(status); got != want {
			t.Errorf("Terminal(%q) = %v, want %v", status, got, want)
		}
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker(3, time.Second)
	now := time.Unix(1000, 0)
	b.SetClock(func() time.Time { return now })
	fail := errors.New("disk on fire")

	if !b.Allow() || b.State() != BreakerClosed {
		t.Fatal("fresh breaker must be closed and allowing")
	}
	// Two failures: still under threshold.
	b.Record(fail)
	b.Record(fail)
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatalf("state after 2 failures = %s, want closed", b.State())
	}
	// A success resets the streak: two more failures still don't trip.
	b.Record(nil)
	b.Record(fail)
	b.Record(fail)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %s, want closed (success must reset the streak)", b.State())
	}
	// Third consecutive failure trips it open.
	b.Record(fail)
	if b.State() != BreakerOpen || !b.Degraded() {
		t.Fatalf("state after threshold = %s, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed an operation before cooldown")
	}
	// Cooldown elapses: exactly one half-open probe.
	now = now.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %s, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("half-open breaker allowed a second concurrent probe")
	}
	// Probe fails: straight back to open, cooldown restarts.
	b.Record(fail)
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %s, want open", b.State())
	}
	now = now.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the second probe")
	}
	// Probe succeeds: closed again, serving durably.
	b.Record(nil)
	if b.State() != BreakerClosed || b.Degraded() {
		t.Fatalf("state after successful probe = %s, want closed", b.State())
	}
}

func TestBreakerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewBreaker(1, time.Minute).Instrument(reg)
	b.Record(errors.New("x"))
	snap := reg.Snapshot()
	if got := gaugeValue(t, snap, "relsyn_store_degraded"); got != 1 {
		t.Fatalf("relsyn_store_degraded = %v, want 1", got)
	}
	b.SetClock(func() time.Time { return time.Now().Add(2 * time.Minute) })
	if !b.Allow() {
		t.Fatal("want half-open probe")
	}
	b.Record(nil)
	if got := gaugeValue(t, reg.Snapshot(), "relsyn_store_degraded"); got != 0 {
		t.Fatalf("relsyn_store_degraded after recovery = %v, want 0", got)
	}
}

func gaugeValue(t *testing.T, snap obs.Snapshot, name string) float64 {
	t.Helper()
	v, ok := snap.Gauges[name]
	if !ok {
		t.Fatalf("gauge %s not in snapshot (have %v)", name, snap.Gauges)
	}
	return v
}
