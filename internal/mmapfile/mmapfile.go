// Package mmapfile maps whole files read-only into memory so large
// snapshot payloads can back runtime data structures without living on
// the Go heap: the kernel pages cold ranges out under memory pressure
// and faults them back in on access, which is what lets the serving
// layer hold datasets several times larger than its resident-memory
// budget.
//
// On platforms without mmap support (or when the caller asks for a
// materialized copy) Open falls back to reading the file into an
// ordinary heap slice; Mapped reports which path was taken so callers
// can account the bytes as resident or kernel-evictable.
package mmapfile

// File is one opened file: either a read-only memory mapping or a heap
// copy of the file's contents. The zero value is unusable; use Open.
//
// A mapped File's Data slice stays valid until Close. Callers that hand
// sub-slices of Data to long-lived structures must keep the File
// reachable for as long as those slices are; a finalizer unmaps the
// region once the File is garbage-collected, so dropping the last
// reference is a safe (if lazy) close. Because the snapshot publisher
// replaces files by rename(2), an already-open mapping keeps reading
// the old inode — re-basing onto a fresh snapshot never invalidates
// slices pinned by in-flight readers.
type File struct {
	data   []byte
	mapped bool
}

// Data returns the file contents. For a mapped file this aliases the
// mapping; for the fallback path it is an ordinary heap slice. Callers
// must not write through it either way.
func (f *File) Data() []byte { return f.data }

// Mapped reports whether the contents are backed by a kernel memory
// mapping (true) or a heap copy (false).
func (f *File) Mapped() bool { return f.mapped }
