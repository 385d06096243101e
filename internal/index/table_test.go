package index

import (
	"slices"
	"sync"
	"testing"
)

// TestTableClaimedLengthRule walks the rule's three cases: the latest copy
// appends in place, a second copy of the same view pays one copy and then
// owns its array, and no view ever changes under another's appends.
func TestTableClaimedLengthRule(t *testing.T) {
	var base Table[int]
	for i := 0; i < 10; i++ {
		base.Append(i)
	}
	if cap(base.Rows) == len(base.Rows) {
		t.Fatal("a copied table kept no slack")
	}
	winner, loser := base, base
	winner.Append(100)
	if &winner.Rows[0] != &base.Rows[0] {
		t.Error("the first copy to append did not append in place")
	}
	loser.Append(200)
	loser.Append(201)
	if &loser.Rows[0] == &base.Rows[0] {
		t.Error("a second copy appended into the array the first had claimed")
	}
	late := base // taken after the slot was claimed: still ten rows, must copy
	late.Append(300)
	winner.Append(101)
	for name, c := range map[string]struct{ got, want []int }{
		"base":   {base.Rows, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		"winner": {winner.Rows, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 100, 101}},
		"loser":  {loser.Rows, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 200, 201}},
		"late":   {late.Rows, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 300}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s = %v, want %v", name, c.got, c.want)
		}
	}
	if n := len(loser.Rows); cap(loser.Rows) > n+max(n/8, tableMinSlack) {
		t.Errorf("a copy of %d rows kept capacity %d: slack is bounded by an eighth", n, cap(loser.Rows))
	}
}

// TestTableCopiesRaceForOneSlot has eight copies of one view append at once
// (run with -race): exactly one may win the shared slot, and every copy must
// end with the base rows and its own.
func TestTableCopiesRaceForOneSlot(t *testing.T) {
	base := TableOf(make([]int, 4, 64))
	copies := make([]Table[int], 8)
	var wg sync.WaitGroup
	for i := range copies {
		copies[i] = base
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				copies[i].Append(1000*(i+1) + j)
			}
		}()
	}
	wg.Wait()
	inPlace := 0
	for i, c := range copies {
		if &c.Rows[0] == &base.Rows[0] {
			inPlace++
		}
		if len(c.Rows) != 24 || c.Rows[4] != 1000*(i+1) || c.Rows[23] != 1000*(i+1)+19 {
			t.Errorf("copy %d holds %v", i, c.Rows)
		}
	}
	if inPlace != 1 {
		t.Errorf("%d copies extended the shared array in place, want exactly 1", inPlace)
	}
}
