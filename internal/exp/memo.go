package exp

import "sync"

// memo is a singleflight map from key to a computed value — the one
// caching primitive behind the suite's traces, simulation results,
// analyses and warmup runs, and the root's shared prefix parents and
// BaM runs. The first caller for a key computes it; concurrent callers
// for the same key block until the value is committed, and later
// callers read it. If compute panics, nothing is committed and waiters
// retry (typically re-panicking the same way). The zero value is ready
// to use.
type memo[V any] struct {
	mu       sync.Mutex
	done     map[string]V
	inflight map[string]chan struct{}
}

// get returns the value for key, computing it on first use; computed
// reports whether this call ran compute.
func (m *memo[V]) get(key string, compute func() V) (v V, computed bool) {
	for {
		m.mu.Lock()
		if v, ok := m.done[key]; ok {
			m.mu.Unlock()
			return v, false
		}
		if ch, ok := m.inflight[key]; ok {
			m.mu.Unlock()
			<-ch
			continue
		}
		if m.done == nil {
			m.done = make(map[string]V)
			m.inflight = make(map[string]chan struct{})
		}
		ch := make(chan struct{})
		m.inflight[key] = ch
		m.mu.Unlock()
		return m.fill(key, ch, compute), true
	}
}

// fill runs compute for a key this caller claimed, commits the value,
// and releases the waiters — also when compute panics.
func (m *memo[V]) fill(key string, ch chan struct{}, compute func() V) V {
	defer func() {
		m.mu.Lock()
		delete(m.inflight, key)
		m.mu.Unlock()
		close(ch)
	}()
	v := compute()
	m.mu.Lock()
	m.done[key] = v
	m.mu.Unlock()
	return v
}
