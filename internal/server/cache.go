package server

import (
	"container/list"
	"sync"
)

// lruCache is a bounded, mutex-protected LRU keyed by canonical point keys.
// Values are opaque (rendered response bodies for the result cache, machine
// handles for the machine cache); eviction is strictly least-recently-used.
// The zero capacity disables caching (every Get misses, Put is a no-op),
// which is the -cache-entries=0 escape hatch.
type lruCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recent; values are *lruEntry
	entries map[string]*list.Element
}

type lruEntry struct {
	key   string
	value any
}

// newLRU returns an LRU bounded to capacity entries.
func newLRU(capacity int) *lruCache {
	return &lruCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get returns the cached value and marks it most recently used.
func (c *lruCache) Get(key string) (any, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).value, true
}

// Put inserts or refreshes a key, evicting the least recently used entry
// beyond capacity.
func (c *lruCache) Put(key string, value any) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry).value = value
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry{key: key, value: value})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry).key)
	}
}

// Len returns the number of cached entries.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
