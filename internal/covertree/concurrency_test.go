package covertree

import (
	"sync"
	"testing"

	"repro/internal/indextest"
	"repro/internal/vecmath"
)

// TestConcurrentReaders backs the documented claim that queries may run
// concurrently on an immutable tree (run with -race).
func TestConcurrentReaders(t *testing.T) {
	pts := indextest.ClusteredPoints(800, 4, 6, 1)
	tree, err := New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				qid := (g*131 + i*7) % len(pts)
				q := pts[qid]
				nn := tree.KNN(q, 5, qid)
				if len(nn) != 5 {
					errs <- errKNNShort
					return
				}
				cur := tree.NewCursor(q, qid)
				for j := 0; j < 10; j++ {
					if _, ok := cur.Next(); !ok {
						errs <- errCursorShort
						return
					}
				}
				if tree.CountCloser(q, nn[4].Dist, 5, qid, nil) > 4 {
					errs <- errCountTooHigh
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var (
	errKNNShort     = errString("KNN returned fewer than k results")
	errCursorShort  = errString("cursor ended prematurely")
	errCountTooHigh = errString("CountCloser counted the fifth neighbor as closer than itself")
)

type errString string

func (e errString) Error() string { return string(e) }
