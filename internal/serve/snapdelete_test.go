package serve

import (
	"os"
	"strings"
	"testing"
)

// TestDeleteSnapshot drives DELETE /snapshots/{id} over HTTP: the
// live-snapshot gauge counts captures until they are deleted, a deleted
// id neither restores nor deletes again (404), and the other capture
// still restores.
func TestDeleteSnapshot(t *testing.T) {
	sv := startServer(t, Config{Shards: 2})
	var info sessionInfo
	call(t, sv, "POST", "/sessions", createRequest{Mode: "raw"}, &info)
	call(t, sv, "POST", "/sessions/"+info.ID+"/op", map[string]any{"op": "malloc", "size": 64}, nil)
	var a, b struct {
		Snapshot string `json:"snapshot"`
	}
	call(t, sv, "POST", "/sessions/"+info.ID+"/snapshot", struct{}{}, &a)
	call(t, sv, "POST", "/sessions/"+info.ID+"/snapshot", struct{}{}, &b)
	if live := sv.MetricsSnapshot()["serve.snapshots.live"]; live != 2 {
		t.Fatalf("serve.snapshots.live = %v with two captures, want 2", live)
	}

	var del map[string]any
	call(t, sv, "DELETE", "/snapshots/"+a.Snapshot, nil, &del)
	if del["deleted"] != true {
		t.Fatalf("delete reply %v", del)
	}
	if _, durable := del["durable"]; durable {
		t.Fatalf("memory-only server reported durability: %v", del)
	}
	m := sv.MetricsSnapshot()
	if m["serve.snapshots.live"] != 1 || m["serve.snapshots"] != 2 {
		t.Fatalf("after delete: live %v captured %v, want 1 and 2", m["serve.snapshots.live"], m["serve.snapshots"])
	}
	if err := callErr(sv, "DELETE", "/snapshots/"+a.Snapshot, nil, nil); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("second delete: %v, want 404", err)
	}
	if err := callErr(sv, "DELETE", "/snapshots/snap-999", nil, nil); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("delete of an unknown id: %v, want 404", err)
	}
	if err := callErr(sv, "POST", "/restore", map[string]any{"snapshot": a.Snapshot}, nil); err == nil {
		t.Fatal("a deleted snapshot restored")
	}
	call(t, sv, "POST", "/restore", map[string]any{"snapshot": b.Snapshot}, nil)
}

// TestDeletedSnapshotStaysDeletedAfterRestart: a durable server deletes
// one of two persisted captures; a server recovered from the directory
// brings back only the other, and its gauge agrees.
func TestDeletedSnapshotStaysDeletedAfterRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(restartStoreConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	sv := startServer(t, Config{Shards: 2, Store: st})
	var info sessionInfo
	call(t, sv, "POST", "/sessions", createRequest{Mode: "raw"}, &info)
	call(t, sv, "POST", "/sessions/"+info.ID+"/op", map[string]any{"op": "malloc", "size": 64}, nil)
	var a, b struct {
		Snapshot string `json:"snapshot"`
		Durable  bool   `json:"durable"`
	}
	call(t, sv, "POST", "/sessions/"+info.ID+"/snapshot", struct{}{}, &a)
	call(t, sv, "POST", "/sessions/"+info.ID+"/snapshot", struct{}{}, &b)
	if !a.Durable || !b.Durable {
		t.Fatalf("captures not persisted: %+v %+v", a, b)
	}
	var del struct {
		Deleted, Durable bool
	}
	call(t, sv, "DELETE", "/snapshots/"+a.Snapshot, nil, &del)
	if !del.Deleted || !del.Durable {
		t.Fatalf("durable delete reply %+v", del)
	}

	sv2, rep := recoverDir(t, dir)
	t.Cleanup(func() { sv2.Close() })
	if rep.Snapshots != 1 || rep.Damaged != 0 {
		t.Fatalf("recover report %+v, want 1 snapshot, 0 damaged", rep)
	}
	if _, err := sv2.restoreSnapshot(a.Snapshot, nil); err == nil {
		t.Fatalf("deleted snapshot %s came back after restart", a.Snapshot)
	}
	if _, err := sv2.restoreSnapshot(b.Snapshot, nil); err != nil {
		t.Fatalf("surviving snapshot %s: %v", b.Snapshot, err)
	}
	if live := sv2.MetricsSnapshot()["serve.snapshots.live"]; live != 1 {
		t.Fatalf("recovered serve.snapshots.live = %v, want 1", live)
	}
	if ok, err := sv2.deleteSnapshot(b.Snapshot); !ok || err != nil {
		t.Fatalf("delete after recovery: %v %v", ok, err)
	}
}

// TestSnapshotDeletedDuringWriteStaysDeleted takes the interleaving a
// DELETE can have with a durable capture: the map entry is gone before
// the capture's file is written. The write must not leave the file for
// recovery to bring back.
func TestSnapshotDeletedDuringWriteStaysDeleted(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(restartStoreConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	sv := startServer(t, Config{Shards: 2, Store: st})
	var info sessionInfo
	call(t, sv, "POST", "/sessions", createRequest{Mode: "raw"}, &info)
	s, ok := sv.session(info.ID)
	if !ok {
		t.Fatal("session missing")
	}
	id, snap := sv.snapshotSession(s)
	if ok, err := sv.deleteSnapshot(id); !ok || err != nil {
		t.Fatalf("delete before the write: %v %v", ok, err)
	}
	if err := sv.persistSnapshot(id, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(st.snapshotPath(id)); !os.IsNotExist(err) {
		t.Fatalf("file of deleted snapshot %s: %v", id, err)
	}
	sv2, rep := recoverDir(t, dir)
	t.Cleanup(func() { sv2.Close() })
	if rep.Snapshots != 0 {
		t.Fatalf("recover report %+v, want no snapshots", rep)
	}
}
