//go:build linux

package snapshot

import "syscall"

// populateFlag asks mmap to prefault the whole mapping up front. A load
// reads the header and checksums the structural sections at once; the R/T
// arena pages are read at load only by the copying paths and
// SetVerifyArenas, and otherwise by the restored checker's queries as
// they touch rows. One MAP_POPULATE walk in the kernel replaces the
// demand fault per 4KiB page either pattern would take — on the default
// aliasing path it moves the arenas' faults from query time to load time.
const populateFlag = syscall.MAP_POPULATE
