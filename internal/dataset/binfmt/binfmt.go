package binfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Magic opens and closes every shard file. The trailing copy lets a
// reader reject truncated files before trusting any offset, and byte 6
// carries the container version.
var Magic = [8]byte{0x89, 'R', 'V', 'B', 'I', 'N', 1, '\n'}

// MagicLen is the number of bytes a format sniffer needs from the start
// of a file to recognise a binary shard.
const MagicLen = len(Magic)

// IsMagic reports whether b starts with the shard magic.
func IsMagic(b []byte) bool {
	return len(b) >= MagicLen && [8]byte(b[:MagicLen]) == Magic
}

// maxFrame bounds a single record payload. Anything larger in a length
// prefix is treated as corruption rather than an allocation request.
const maxFrame = 1 << 30

// ErrCorrupt wraps every structural decoding failure so callers can
// distinguish a damaged shard from an I/O error.
var ErrCorrupt = errors.New("binfmt: corrupt shard")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// uvarint decodes an unsigned LEB128 varint from b, returning the value
// and the number of bytes consumed.
func uvarint(b []byte) (uint64, int, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, corrupt("truncated or oversized uvarint")
	}
	return v, n, nil
}

// uvarintStr is uvarint over a string, for the footer parser — the
// footer is held as one string so the table entries can share its
// backing without a second copy.
func uvarintStr(s string) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(s) && i < binary.MaxVarintLen64; i++ {
		b := s[i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break // value exceeds 64 bits
			}
			return v | uint64(b)<<(7*i), i + 1, nil
		}
		v |= uint64(b&0x7f) << (7 * i)
	}
	return 0, 0, corrupt("truncated or oversized uvarint")
}

// Interner assigns dense IDs to strings in first-use order. The writer
// carries one per shard and serialises the table into the footer.
type Interner struct {
	ids   map[string]uint64
	table []string
}

// NewInterner returns an empty intern table.
func NewInterner() *Interner {
	return &Interner{ids: map[string]uint64{}}
}

// ID returns the dense ID for s, assigning the next one on first use.
func (in *Interner) ID(s string) uint64 {
	if id, ok := in.ids[s]; ok {
		return id
	}
	id := uint64(len(in.table))
	in.ids[s] = id
	in.table = append(in.table, s)
	return id
}

// IDBytes is ID keyed by a byte slice: the map lookup allocates
// nothing, and the string is materialised only on first use.
func (in *Interner) IDBytes(b []byte) uint64 {
	if id, ok := in.ids[string(b)]; ok {
		return id
	}
	return in.ID(string(b))
}
