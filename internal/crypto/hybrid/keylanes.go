package hybrid

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"prochlo/internal/crypto/group"
	"prochlo/internal/parallel"
)

// Envelope keys in lanes. Every batch path derives its keys through a
// keyDeriver: add queues one derivation and flush runs the queued ones,
// sixteen to a call of laneHKDF where the CPU has the kernel
// (sha256x16_amd64.go) and one by one on scratch's scalar path otherwise.
// The scheme is the scalar path's, byte for byte: HKDF-SHA256 with the
// shared point's encoding as the secret, ephPub||rcptPub as the salt and
// hkdfInfo as the info, whose 16-byte output is eleven SHA-256 compressions
// in five dependent hashes. The Go side lays each lane's words out in
// memory (hkdfLanes) and the kernel does the rest.

// lanes is the number of derivations one kernel call runs.
const lanes = 16

// minLanes is the shortest group the kernel runs: a call costs as much as
// sixteen lanes whatever it carries, about as much as four scalar
// derivations, so a shorter group is derived on the scalar path.
const minLanes = 4

// laneHKDF, when set, runs sixteen derivations over l. Package init sets
// it once, on amd64 builds whose CPU has AVX512F (sha256x16_amd64.go), and
// nothing changes it afterwards except tests, which clear it to hold the
// batch paths to the scalar derivation.
var laneHKDF func(l *hkdfLanes)

// laneBlock is one SHA-256 block of sixteen messages, lane-major: row w is
// big-endian message word w of every lane, one ZMM register.
type laneBlock [16][lanes]uint32

// saltLen is the length of the salt, ephPub||rcptPub, whose hash is three
// blocks. A lane writes its first saltWords words (setLane), the last of
// which holds the 0x80 that opens the padding.
const (
	saltLen   = 2 * pubKeyLen
	saltWords = 33
)

// hkdfLanes is the memory of one hkdf16 call. Its layout is
// sha256x16_gen.go's offsets. Rows that do not depend on a lane's input —
// the padding and the pads' constant halves, and the whole second block of
// the OKM's inner hash — are written once, by newHKDFLanes.
type hkdfLanes struct {
	salt   [3 * 16][lanes]uint32     // ephPub||rcptPub, padded, three blocks; words below saltWords per lane
	secret laneBlock                 // rows 0-7: the shared secret; then the padding of a 96-byte message
	ipad   laneBlock                 // rows 0-7: an HMAC key ^ ipad (the kernel's); then ipad
	opad   laneBlock                 // rows 0-7: an HMAC key ^ opad (the kernel's); then opad
	digest laneBlock                 // rows 0-7: an inner hash (the kernel's); then the padding of a 96-byte message
	info   laneBlock                 // hkdfInfo || 0x01, the padding of an 82-byte message
	save   [8][lanes]uint32          // the kernel's feed-forward copy
	key    [keyLen / 4][lanes]uint32 // out: the first words of every OKM
}

// finalBlock returns the last block of a SHA-256 message of total bytes
// whose final block holds used bytes of data, left zero: the 0x80 byte and
// the bit length.
func finalBlock(used, total int) (b [64]byte) {
	b[used] = 0x80
	binary.BigEndian.PutUint64(b[56:], uint64(total)*8)
	return b
}

// setRows fills rows [from, 16) of blk, every lane alike, from the block
// bytes.
func setRows(blk *laneBlock, from int, b *[64]byte) {
	for w := from; w < 16; w++ {
		v := binary.BigEndian.Uint32(b[4*w:])
		for i := range blk[w] {
			blk[w][i] = v
		}
	}
}

func newHKDFLanes() *hkdfLanes {
	l := new(hkdfLanes)
	// The salt's padding: it ends in the third block.
	pad := finalBlock(saltLen-2*64, saltLen)
	for w := saltWords; w < len(l.salt); w++ {
		v := binary.BigEndian.Uint32(pad[4*(w-32):])
		for i := range l.salt[w] {
			l.salt[w][i] = v
		}
	}
	hmacMsg := finalBlock(sha256.Size, 64+sha256.Size)
	setRows(&l.secret, 8, &hmacMsg)
	setRows(&l.digest, 8, &hmacMsg)
	ipad, opad := [64]byte{}, [64]byte{}
	for i := range ipad {
		ipad[i], opad[i] = 0x36, 0x5c
	}
	setRows(&l.ipad, 8, &ipad)
	setRows(&l.opad, 8, &opad)
	info := finalBlock(len(hkdfInfo)+1, 64+len(hkdfInfo)+1)
	copy(info[:], hkdfInfo)
	info[len(hkdfInfo)] = 1
	setRows(&l.info, 0, &info)
	return l
}

// setLane writes one derivation's salt and secret into lane i. The salt is
// two 65-byte keys, so rcpt starts one byte into word 16 and ends two bytes
// into word 32.
func (l *hkdfLanes) setLane(i int, in *laneInput) {
	be := binary.BigEndian
	eph, rcpt, s := (*[pubKeyLen]byte)(in.eph), (*[pubKeyLen]byte)(in.rcpt), &l.salt
	i &= lanes - 1
	for w := range 16 {
		s[w][i] = be.Uint32(eph[4*w:])
	}
	s[16][i] = uint32(eph[64])<<24 | uint32(rcpt[0])<<16 | uint32(rcpt[1])<<8 | uint32(rcpt[2])
	for w := 17; w < 32; w++ {
		s[w][i] = be.Uint32(rcpt[4*w-pubKeyLen:])
	}
	s[32][i] = uint32(rcpt[63])<<24 | uint32(rcpt[64])<<16 | 0x80<<8
	for w := range 8 {
		l.secret[w][i] = be.Uint32(in.secret[4*w:])
	}
}

// laneInput is one queued derivation: the secret's encoding, the two
// public keys of the salt (both pubKeyLen bytes) and where the key goes.
type laneInput struct {
	dst       *[keyLen]byte
	secret    [sharedLen]byte
	eph, rcpt []byte
}

// keyDeriver queues key derivations and runs them in groups of sixteen. It
// holds the scalar path's scratch too, for the derivations the lanes do not
// take, and the lane memory once a group runs on the kernel. Get one from
// derivers.
type keyDeriver struct {
	scratch
	lanes *hkdfLanes
	n     int
	queue [lanes]laneInput
}

var derivers = sync.Pool{New: func() any { return &keyDeriver{scratch: scratch{hash: sha256.New()}} }}

// add queues the derivation of the key of a DH result shared between the
// public keys eph and rcpt into dst, secret being the result's encoding
// (group.Group.SharedBytes). eph, rcpt and dst must stay as they are until
// the next flush. Input the lanes do not take — an identity secret, whose
// encoding is one byte, or a public key that is not pubKeyLen bytes — is
// derived at once.
func (d *keyDeriver) add(dst *[keyLen]byte, secret, eph, rcpt []byte) {
	if len(secret) != sharedLen || len(eph) != pubKeyLen || len(rcpt) != pubKeyLen {
		copy(dst[:], d.kdf(secret, eph, rcpt))
		return
	}
	in := &d.queue[d.n]
	in.dst, in.secret, in.eph, in.rcpt = dst, [sharedLen]byte(secret), eph, rcpt
	if d.n++; d.n == lanes {
		d.flush()
	}
}

// flush derives every queued key.
func (d *keyDeriver) flush() {
	q := d.queue[:d.n]
	if laneHKDF != nil && len(q) >= minLanes {
		d.runLanes(q)
	} else {
		for i := range q {
			copy(q[i].dst[:], d.kdf(q[i].secret[:], q[i].eph, q[i].rcpt))
		}
	}
	clear(q)
	d.n = 0
}

// runLanes derives q's keys in one kernel call. A short group repeats its
// last input in the lanes past it.
func (d *keyDeriver) runLanes(q []laneInput) {
	if d.lanes == nil {
		d.lanes = newHKDFLanes()
	}
	l := d.lanes
	for i := range lanes {
		l.setLane(i, &q[min(i, len(q)-1)])
	}
	laneHKDF(l)
	for i := range q {
		for w := range l.key {
			binary.BigEndian.PutUint32(q[i].dst[4*w:], l.key[w][i])
		}
	}
}

// DeriveKeys derives the AES key of every seal in sets once b has run over
// their slots: the last step before PendingSeal.Seal.
// The sets are of equal length. The records are cut as every crypto fan-out
// cuts its batch (parallel.Ranges; workers <= 0 selects GOMAXPROCS), and a
// range queues record i's seal of every set before record i+1's, so one
// kernel call derives keys for any mix of recipients. A range of RangeMax
// records is whole groups of sixteen keys; a shorter one — the batch's last,
// or every range of a batch too small to give each worker RangeMax — may end
// on a partial group.
func DeriveKeys(b *group.CombBatch, workers int, sets ...[]PendingSeal) {
	if len(sets) == 0 {
		return
	}
	parallel.Ranges(parallel.Workers(workers), len(sets[0]), func(lo, hi int) {
		d := derivers.Get().(*keyDeriver)
		for i := lo; i < hi; i++ {
			for _, set := range sets {
				set[i].queueKey(d, b)
			}
		}
		d.flush()
		derivers.Put(d)
	})
}
