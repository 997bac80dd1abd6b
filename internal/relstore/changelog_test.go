package relstore

import (
	"fmt"
	"sync"
	"testing"
)

func deltaTable(t *testing.T) *Table {
	t.Helper()
	tab := NewTable("p", Schema{{Name: "id", Kind: KindString}, {Name: "n", Kind: KindInt}})
	tab.MustInsert(Tuple{String("a"), Int(1)})
	tab.MustInsert(Tuple{String("b"), Int(2)})
	tab.MustInsert(Tuple{String("c"), Int(3)})
	return tab
}

func TestVersionAdvancesPerMutation(t *testing.T) {
	tab := deltaTable(t)
	if got := tab.Version(); got != 3 {
		t.Fatalf("version after 3 inserts = %d, want 3", got)
	}
	if _, err := tab.DeleteAt(1); err != nil {
		t.Fatal(err)
	}
	if got := tab.Version(); got != 4 {
		t.Fatalf("version after delete = %d, want 4", got)
	}
	if tab.Len() != 2 {
		t.Fatalf("len after delete = %d, want 2", tab.Len())
	}
}

func TestChangesSinceReplaysToCurrentState(t *testing.T) {
	tab := deltaTable(t)
	base := tab.Version()
	baseRows := tab.Rows()
	tab.MustInsert(Tuple{String("d"), Int(4)})
	if _, err := tab.DeleteAt(0); err != nil {
		t.Fatal(err)
	}
	cs := tab.ChangesSince(base)
	if cs.Truncated {
		t.Fatal("unexpected truncation")
	}
	if cs.Since != base || cs.Now != tab.Version() {
		t.Fatalf("window = (%d,%d], want (%d,%d]", cs.Since, cs.Now, base, tab.Version())
	}
	// Replay the deltas over the base snapshot; the multiset must equal
	// the current rows.
	counts := make(map[string]int)
	for _, row := range baseRows {
		counts[row.Key()]++
	}
	for _, ch := range cs.Changes {
		switch ch.Op {
		case ChangeInsert:
			counts[ch.Row.Key()]++
		case ChangeDelete:
			counts[ch.Row.Key()]--
		}
	}
	for _, row := range tab.Rows() {
		counts[row.Key()]--
	}
	for k, n := range counts {
		if n != 0 {
			t.Fatalf("replay mismatch at %q: %+d", k, n)
		}
	}
}

func TestChangesSinceBeyondNowIsTruncated(t *testing.T) {
	tab := deltaTable(t)
	cs := tab.ChangesSince(tab.Version() + 10)
	if !cs.Truncated {
		t.Fatal("future since must report truncated")
	}
}

func TestSortResetsLog(t *testing.T) {
	tab := deltaTable(t)
	base := tab.Version()
	tab.Sort(nil)
	cs := tab.ChangesSince(base)
	if !cs.Truncated {
		t.Fatal("window spanning a Sort must be truncated")
	}
	if cs2 := tab.ChangesSince(tab.Version()); cs2.Truncated || len(cs2.Changes) != 0 {
		t.Fatalf("empty window after Sort: %+v", cs2)
	}
}

func TestDistinctLogsDeletes(t *testing.T) {
	tab := deltaTable(t)
	tab.MustInsert(Tuple{String("a"), Int(1)}) // duplicate
	base := tab.Version()
	tab.Distinct()
	cs := tab.ChangesSince(base)
	if cs.Truncated {
		t.Fatal("Distinct should be delta-expressible")
	}
	if len(cs.Changes) != 1 || cs.Changes[0].Op != ChangeDelete {
		t.Fatalf("changes = %+v, want one delete", cs.Changes)
	}
}

func TestBoundedLogTruncates(t *testing.T) {
	tab := NewTable("p", Schema{{Name: "n", Kind: KindInt}})
	tab.SetChangeLogLimit(4)
	for i := 0; i < 10; i++ {
		tab.MustInsert(Tuple{Int(int64(i))})
	}
	if cs := tab.ChangesSince(0); !cs.Truncated {
		t.Fatal("window older than the bounded log must be truncated")
	}
	cs := tab.ChangesSince(6)
	if cs.Truncated || len(cs.Changes) != 4 {
		t.Fatalf("recent window = %+v, want 4 changes", cs)
	}
}

func TestDisabledLogAlwaysTruncates(t *testing.T) {
	tab := NewTable("p", Schema{{Name: "n", Kind: KindInt}})
	tab.SetChangeLogLimit(-1)
	v := tab.Version()
	tab.MustInsert(Tuple{Int(1)})
	if cs := tab.ChangesSince(v); !cs.Truncated {
		t.Fatal("disabled log must truncate every non-empty window")
	}
}

func TestDeleteWhereLogsEachRow(t *testing.T) {
	tab := deltaTable(t)
	base := tab.Version()
	n := tab.DeleteWhere(func(row Tuple) bool { return row[1].Compare(Int(2)) <= 0 })
	if n != 2 {
		t.Fatalf("DeleteWhere removed %d, want 2", n)
	}
	if got := tab.Version(); got != base+1 {
		t.Fatalf("DeleteWhere bumped version to %d, want %d", got, base+1)
	}
	cs := tab.ChangesSince(base)
	if cs.Truncated || len(cs.Changes) != 2 {
		t.Fatalf("changes = %+v, want 2 deletes", cs)
	}
}

func TestAddTableReplacementKeepsVersionsMonotonic(t *testing.T) {
	db := NewDatabase("DB1")
	a := NewTable("p", Schema{{Name: "n", Kind: KindInt}})
	db.AddTable(a)
	a.MustInsert(Tuple{Int(1)})
	a.MustInsert(Tuple{Int(2)})
	seen := a.Version()

	b := NewTable("p", Schema{{Name: "n", Kind: KindInt}})
	b.MustInsert(Tuple{Int(9)})
	db.AddTable(b)
	if b.Version() <= seen {
		t.Fatalf("replacement version %d not past predecessor's %d", b.Version(), seen)
	}
	cs, err := db.ChangesSince("p", seen)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Truncated {
		t.Fatal("delta window across a table replacement must be truncated")
	}
	vers := db.TableVersions()
	if vers["p"] != b.Version() {
		t.Fatalf("TableVersions = %v, want p=%d", vers, b.Version())
	}
}

func TestConcurrentReadersSeeConsistentSnapshots(t *testing.T) {
	tab := NewTable("p", Schema{{Name: "id", Kind: KindString}, {Name: "n", Kind: KindInt}})
	tab.MustInsert(Tuple{String("seed"), Int(0)})
	const writes = 400
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := tab.Version()
				rows := tab.Rows()
				// A snapshot loaded after observing version v must
				// contain at least the rows present at v (inserts only
				// grow this table).
				if uint64(len(rows)) < v {
					t.Errorf("version %d but snapshot has %d rows", v, len(rows))
					return
				}
				for _, row := range rows {
					_ = row.Key() // must never observe torn tuples
				}
				_ = tab.DistinctCount(1)
			}
		}()
	}
	for i := 0; i < writes; i++ {
		tab.MustInsert(Tuple{String(fmt.Sprintf("w%d", i)), Int(int64(i))})
	}
	close(stop)
	wg.Wait()
}
