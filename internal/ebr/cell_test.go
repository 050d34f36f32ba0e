package ebr

import (
	"fmt"
	"testing"
)

// TestUnpublished pins the two ways an Unpublished yields its value: After
// only once a Synchronize on its domain has finished since the Swap, and
// Defer only from the callback the deferral runs.
func TestUnpublished(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, d *Domain, c *Cell[int], old *int)
	}{
		{"after-without-synchronize", func(t *testing.T, d *Domain, c *Cell[int], _ *int) {
			u := c.Swap(d, new(int))
			mustPanic(t, func() { u.After() })
		}},
		{"after-synchronize-before-swap", func(t *testing.T, d *Domain, c *Cell[int], _ *int) {
			d.Synchronize()
			u := c.Swap(d, new(int))
			mustPanic(t, func() { u.After() })
		}},
		{"after-synchronize-since-swap", func(t *testing.T, d *Domain, c *Cell[int], old *int) {
			u := c.Swap(d, new(int))
			d.Synchronize()
			if got := u.After(); got != old {
				t.Fatalf("After() = %p, want the swapped-out %p", got, old)
			}
		}},
		{"defer-frees-when-run", func(t *testing.T, d *Domain, c *Cell[int], old *int) {
			var pending []func()
			var freed *int
			c.Swap(d, new(int)).Defer(func(f func()) { pending = append(pending, f) },
				func(p *int) { freed = p })
			if freed != nil || len(pending) != 1 {
				t.Fatalf("Defer freed %p with %d callbacks pending; want nothing freed and 1 pending", freed, len(pending))
			}
			pending[0]()
			if freed != old {
				t.Fatalf("deferred free got %p, want the swapped-out %p", freed, old)
			}
		}},
	}
	for _, tc := range cases {
		// The second start makes the first grace wrap the epoch (Lemma 2).
		for _, start := range []uint64{0, ^uint64(0)} {
			d := NewAtEpoch(start)
			var c Cell[int]
			old := new(int)
			c.Swap(d, old)
			t.Run(fmt.Sprintf("%s/epoch=%d", tc.name, start), func(t *testing.T) { tc.run(t, d, &c, old) })
		}
	}
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	fn()
}
