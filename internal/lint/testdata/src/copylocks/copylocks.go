// Package copylocks seeds the four lock-copy shapes for TestVetCopylocks:
// flexlint leaves copied mutexes to `go vet` (copylocks), and the test
// fails if vet stops reporting any of them. The `// want` patterns match
// vet's wording.
package copylocks

import "sync"

// deque mirrors sched's mutex-guarded work queue.
type deque struct {
	mu sync.Mutex
	ts []int
}

// byValue copies the mutex with its container.
func byValue(d deque) int { // want `byValue passes lock by value`
	return len(d.ts)
}

// valueReceiver copies the mutex on every call.
func (d deque) size() int { // want `size passes lock by value`
	return len(d.ts)
}

func copies(ds []deque) int {
	d := ds[0] // want `assignment copies lock value to d`
	n := len(d.ts)
	for _, e := range ds { // want `range var e copies lock`
		n += len(e.ts)
	}
	// Pointers and indexing share the lock: allowed.
	p := &ds[0]
	n += len(p.ts)
	for i := range ds {
		n += len(ds[i].ts)
	}
	// Fresh construction is a move of a never-used lock: allowed.
	fresh := deque{}
	return n + len(fresh.ts)
}
