package wal

import (
	"errors"
	"sync"
)

// ErrInjected is the error every injected fault surfaces. The engine treats
// it like any other append failure — the event is not applied — and the
// recovery harness treats its first occurrence as the crash point.
var ErrInjected = errors.New("wal: injected fault")

// Failpoints scripts the faults a FailpointStore injects. The zero value
// injects nothing.
type Failpoints struct {
	// CrashAfterBytes kills the store once this many bytes (summed across
	// all files) have been written: the crossing write is torn — a short
	// write that persists only the fitting prefix — and every later write
	// fails. Negative disables.
	CrashAfterBytes int64
	// FailSyncAt makes the Nth file Sync (1-based, counted across all
	// files) fail and kill the store. 0 disables.
	FailSyncAt int
	// LoseUnsynced makes Kill roll every file back to its last successfully
	// synced length — the OS view after a machine crash, where page-cache
	// contents that were never fsynced evaporate. Without it, Kill models a
	// process crash: everything written survives.
	LoseUnsynced bool
}

// FailpointStore wraps a Store and injects crash faults per the script.
// After the store dies (budget exhausted, scripted sync failure, or Kill),
// every operation fails with ErrInjected; the wrapped store then holds
// exactly the bytes a real crash would have left, and recovery opens it
// directly.
type FailpointStore struct {
	mu      sync.Mutex
	inner   Store
	fp      Failpoints
	written int64
	syncs   int
	dead    bool
	files   map[string]*fpFile
}

// NewFailpointStore wraps inner with the scripted faults.
func NewFailpointStore(inner Store, fp Failpoints) *FailpointStore {
	if fp.CrashAfterBytes == 0 {
		fp.CrashAfterBytes = -1
	}
	return &FailpointStore{inner: inner, fp: fp, files: make(map[string]*fpFile)}
}

// Kill stops the store as a crash would: every later operation fails, and
// with Failpoints.LoseUnsynced the files roll back to their last synced
// length. Idempotent.
func (s *FailpointStore) Kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return
	}
	s.dieLocked()
}

// dieLocked marks the store crashed and, under LoseUnsynced, rolls every
// file back to its last synced length — the unsynced page-cache suffix a
// machine crash evaporates. Truncate errors are unreachable for the store
// kinds we wrap (sizes only shrink).
func (s *FailpointStore) dieLocked() {
	s.dead = true
	if !s.fp.LoseUnsynced {
		return
	}
	for _, f := range s.files {
		if f.synced < f.size {
			_ = f.inner.Truncate(f.synced)
			f.size = f.synced
		}
	}
}

func (s *FailpointStore) List() ([]string, error) {
	s.mu.Lock()
	dead := s.dead
	s.mu.Unlock()
	if dead {
		return nil, ErrInjected
	}
	return s.inner.List()
}

func (s *FailpointStore) Create(name string) (File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return nil, ErrInjected
	}
	f, err := s.inner.Create(name)
	if err != nil {
		return nil, err
	}
	w := &fpFile{st: s, inner: f}
	s.files[name] = w
	return w, nil
}

func (s *FailpointStore) Open(name string) (File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return nil, ErrInjected
	}
	f, err := s.inner.Open(name)
	if err != nil {
		return nil, err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	// Pre-existing bytes were durable before this incarnation opened them.
	w := &fpFile{st: s, inner: f, size: size, synced: size}
	s.files[name] = w
	return w, nil
}

func (s *FailpointStore) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return ErrInjected
	}
	delete(s.files, name)
	return s.inner.Remove(name)
}

func (s *FailpointStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return ErrInjected
	}
	return s.inner.Sync()
}

// fpFile tracks written vs synced sizes so Kill can model losing the
// unsynced suffix, and applies the write-budget and sync-failure scripts.
type fpFile struct {
	st     *FailpointStore
	inner  File
	size   int64 // bytes written through this handle's store incarnation
	synced int64 // size at the last successful Sync
}

func (f *fpFile) Write(p []byte) (int, error) {
	s := f.st
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return 0, ErrInjected
	}
	if s.fp.CrashAfterBytes >= 0 && s.written+int64(len(p)) > s.fp.CrashAfterBytes {
		// The crossing write tears: only the prefix that fits the budget
		// reaches the file, then the store dies.
		keep := s.fp.CrashAfterBytes - s.written
		n := 0
		if keep > 0 {
			n, _ = f.inner.Write(p[:keep])
		}
		s.written += int64(n)
		f.size += int64(n)
		s.dieLocked()
		return n, ErrInjected
	}
	n, err := f.inner.Write(p)
	s.written += int64(n)
	f.size += int64(n)
	return n, err
}

func (f *fpFile) Sync() error {
	s := f.st
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return ErrInjected
	}
	s.syncs++
	if s.fp.FailSyncAt > 0 && s.syncs == s.fp.FailSyncAt {
		s.dieLocked()
		return ErrInjected
	}
	if err := f.inner.Sync(); err != nil {
		return err
	}
	f.synced = f.size
	return nil
}

func (f *fpFile) ReadAt(p []byte, off int64) (int, error) {
	s := f.st
	s.mu.Lock()
	dead := s.dead
	s.mu.Unlock()
	if dead {
		return 0, ErrInjected
	}
	return f.inner.ReadAt(p, off)
}

func (f *fpFile) Size() (int64, error) {
	s := f.st
	s.mu.Lock()
	dead := s.dead
	s.mu.Unlock()
	if dead {
		return 0, ErrInjected
	}
	return f.inner.Size()
}

func (f *fpFile) Truncate(size int64) error {
	s := f.st
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return ErrInjected
	}
	if err := f.inner.Truncate(size); err != nil {
		return err
	}
	if size < f.size {
		f.size = size
	}
	if size < f.synced {
		f.synced = size
	}
	return nil
}

func (f *fpFile) Close() error { return f.inner.Close() }
