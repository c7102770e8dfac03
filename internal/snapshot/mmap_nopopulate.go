//go:build unix && !linux

package snapshot

// populateFlag: no MAP_POPULATE equivalent; pages fault in on demand as
// the checksum scans and queries touch them.
const populateFlag = 0
