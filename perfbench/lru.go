package main

import (
	"container/list"

	"lfo/internal/trace"
)

// lru is a byte-capacity LRU cache with caller-decided admission. With
// every miss admitted it supplies the free-bytes feature the way the
// offline extraction does; gated by the fleet's answers it measures the
// hit ratios those answers buy.
type lru struct {
	capacity, used int64
	order          *list.List // front = most recent; values are lruEntry
	index          map[trace.ObjectID]*list.Element
}

type lruEntry struct {
	id   trace.ObjectID
	size int64
}

func newLRU(capacity int64) *lru {
	return &lru{capacity: capacity, order: list.New(), index: make(map[trace.ObjectID]*list.Element)}
}

func (c *lru) free() int64 { return c.capacity - c.used }

// request serves r and reports whether it hit; a miss is inserted only
// when admit is set and the object fits the cache at all.
func (c *lru) request(r trace.Request, admit bool) bool {
	if e, ok := c.index[r.ID]; ok {
		c.order.MoveToFront(e)
		return true
	}
	if !admit || r.Size > c.capacity {
		return false
	}
	for c.used+r.Size > c.capacity {
		tail := c.order.Back()
		v := c.order.Remove(tail).(lruEntry)
		delete(c.index, v.id)
		c.used -= v.size
	}
	c.index[r.ID] = c.order.PushFront(lruEntry{r.ID, r.Size})
	c.used += r.Size
	return false
}

// admittedLRU replays reqs through an LRU of the given capacity that
// admits a miss when its served likelihood is at least 0.5, the LFO
// cutoff, and returns hit and request counts and bytes.
func admittedLRU(reqs []trace.Request, probs []float64, capacity int64) (hits, hitBytes, n, bytes int64) {
	c := newLRU(capacity)
	for i, r := range reqs {
		n++
		bytes += r.Size
		if c.request(r, probs[i] >= 0.5) {
			hits++
			hitBytes += r.Size
		}
	}
	return hits, hitBytes, n, bytes
}
