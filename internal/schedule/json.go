package schedule

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// scheduleJSON is the on-disk representation of a schedule.
type scheduleJSON struct {
	NumSlots   int  `json:"numSlots"`
	NumOffsets int  `json:"numOffsets"`
	NumNodes   int  `json:"numNodes"`
	Txs        []Tx `json:"transmissions"`
}

// Encode writes the schedule as JSON, transmissions in placement order. The
// bytes are exactly those json.Encoder writes for scheduleJSON (a nil
// transmission list is "null", and the document ends in a newline), built by
// hand in one buffer and written with a single Write.
func (s *Schedule) Encode(w io.Writer) error {
	// ~100 bytes per transmission covers the keys plus typical digits. A
	// bytes.Buffer (every job part) is appended to in place.
	size := 96 + 100*len(s.txs)
	var b []byte
	if bb, ok := w.(*bytes.Buffer); ok {
		bb.Grow(size)
		b = bb.AvailableBuffer()
	} else {
		b = make([]byte, 0, size)
	}
	put := func(key string, v int) {
		b = append(b, key...)
		b = strconv.AppendInt(b, int64(v), 10)
	}
	put(`{"numSlots":`, s.numSlots)
	put(`,"numOffsets":`, s.numOffsets)
	put(`,"numNodes":`, s.numNodes)
	b = append(b, `,"transmissions":`...)
	if s.txs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, tx := range s.txs {
			if i > 0 {
				b = append(b, ',')
			}
			put(`{"flow":`, tx.FlowID)
			put(`,"instance":`, tx.Instance)
			put(`,"hop":`, tx.Hop)
			put(`,"attempt":`, tx.Attempt)
			put(`,"link":{"from":`, tx.Link.From)
			put(`,"to":`, tx.Link.To)
			put(`},"slot":`, tx.Slot)
			put(`,"offset":`, tx.Offset)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, "}\n"...)
	_, err := w.Write(b)
	return err
}

// Decode reads a schedule written by Encode, re-validating every placement
// (bounds and transmission conflicts). Input in Encode's exact canonical form
// is read by a hand-written scanner; anything else goes through
// encoding/json, which owns every other input and every syntax error.
func Decode(r io.Reader) (*Schedule, error) {
	var rb bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		// In-memory parts are read in one allocation; ReadFrom wants
		// MinRead spare bytes to see EOF without growing again.
		rb.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := rb.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("decode schedule: %w", err)
	}
	buf := rb.Bytes()
	in, ok := scanCanonical(buf)
	if !ok {
		if err := json.NewDecoder(bytes.NewReader(buf)).Decode(&in); err != nil {
			return nil, fmt.Errorf("decode schedule: %w", err)
		}
	}
	s, err := New(in.NumSlots, in.NumOffsets, in.NumNodes)
	if err != nil {
		return nil, fmt.Errorf("decode schedule: %w", err)
	}
	s.Reserve(len(in.Txs))
	for _, tx := range in.Txs {
		if err := s.Place(tx); err != nil {
			return nil, fmt.Errorf("decode schedule: %w", err)
		}
	}
	return s, nil
}

// scanCanonical parses buf if it is byte for byte what Encode writes: keys
// in Encode's order, no whitespace, decimal ints with no leading zeros and
// no "-0" that fit in an int, and exactly one trailing newline. On such
// input encoding/json yields the same scheduleJSON (DESIGN.md gives the
// argument). It reports false, with the zero value, for any other input,
// valid JSON or not.
func scanCanonical(buf []byte) (scheduleJSON, bool) {
	c := canonScanner{buf: buf, ok: true}
	var in scheduleJSON
	in.NumSlots = c.field(`{"numSlots":`)
	in.NumOffsets = c.field(`,"numOffsets":`)
	in.NumNodes = c.field(`,"numNodes":`)
	c.lit(`,"transmissions":`)
	if c.peek('n') {
		c.lit("null")
	} else {
		c.lit("[")
		// A transmission takes at least 88 bytes, so this never regrows.
		in.Txs = make([]Tx, 0, len(buf)/88)
		for c.ok && !c.peek(']') {
			if len(in.Txs) > 0 {
				c.lit(",")
			}
			var tx Tx
			tx.FlowID = c.field(`{"flow":`)
			tx.Instance = c.field(`,"instance":`)
			tx.Hop = c.field(`,"hop":`)
			tx.Attempt = c.field(`,"attempt":`)
			tx.Link.From = c.field(`,"link":{"from":`)
			tx.Link.To = c.field(`,"to":`)
			tx.Slot = c.field(`},"slot":`)
			tx.Offset = c.field(`,"offset":`)
			c.lit("}")
			in.Txs = append(in.Txs, tx)
		}
		c.lit("]")
	}
	c.lit("}\n")
	if !c.ok || c.pos != len(buf) {
		// The zero value, so the fallback decodes into a fresh struct.
		return scheduleJSON{}, false
	}
	return in, true
}

// canonScanner walks a byte slice against Encode's fixed layout. The first
// mismatch clears ok, and every later step is then a no-op.
type canonScanner struct {
	buf []byte
	pos int
	ok  bool
}

// lit consumes the literal s.
func (c *canonScanner) lit(s string) {
	end := c.pos + len(s)
	if c.ok = c.ok && end <= len(c.buf) && string(c.buf[c.pos:end]) == s; c.ok {
		c.pos = end
	}
}

// peek reports whether the next byte is b.
func (c *canonScanner) peek(b byte) bool {
	return c.ok && c.pos < len(c.buf) && c.buf[c.pos] == b
}

// field consumes the literal key and then one canonical int.
func (c *canonScanner) field(key string) int {
	c.lit(key)
	if !c.ok {
		return 0
	}
	neg := c.peek('-')
	if neg {
		c.pos++
	}
	// The magnitude limit is MaxInt, or MaxInt+1 for a negative value.
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	start := c.pos
	var u uint64
	for ; c.pos < len(c.buf) && '0' <= c.buf[c.pos] && c.buf[c.pos] <= '9'; c.pos++ {
		d := uint64(c.buf[c.pos] - '0')
		if u > (limit-d)/10 {
			c.ok = false
			return 0
		}
		u = u*10 + d
	}
	n := c.pos - start
	// At least one digit; a leading zero only as the whole number, and
	// never "-0".
	if n == 0 || (c.buf[start] == '0' && (n > 1 || neg)) {
		c.ok = false
		return 0
	}
	if neg {
		return int(-u)
	}
	return int(u)
}

// DeviceRole describes what a device does in one of its scheduled slots.
type DeviceRole int

const (
	// RoleTransmit: the device sends the DATA frame (and receives the ACK).
	RoleTransmit DeviceRole = iota + 1
	// RoleReceive: the device receives the DATA frame (and sends the ACK).
	RoleReceive
)

// String implements fmt.Stringer.
func (r DeviceRole) String() string {
	switch r {
	case RoleTransmit:
		return "tx"
	case RoleReceive:
		return "rx"
	default:
		return fmt.Sprintf("DeviceRole(%d)", int(r))
	}
}

// DeviceSlot is one entry of a per-device link schedule — the unit a
// WirelessHART network manager disseminates to each field device.
type DeviceSlot struct {
	Slot   int        `json:"slot"`
	Offset int        `json:"offset"`
	Role   DeviceRole `json:"role"`
	// Peer is the other endpoint of the link.
	Peer int `json:"peer"`
	// FlowID identifies the flow the slot serves.
	FlowID int `json:"flow"`
	// Shared marks slots whose channel is reused by other transmissions.
	Shared bool `json:"shared"`
}

// DeviceSchedule extracts the link schedule of one device, ordered by slot.
// This is the view each field device receives from the network manager: it
// needs to know only when to wake, on which channel offset, and in which
// role.
func (s *Schedule) DeviceSchedule(node int) []DeviceSlot {
	var out []DeviceSlot
	for _, tx := range s.txs {
		var role DeviceRole
		var peer int
		switch node {
		case tx.Link.From:
			role, peer = RoleTransmit, tx.Link.To
		case tx.Link.To:
			role, peer = RoleReceive, tx.Link.From
		default:
			continue
		}
		out = append(out, DeviceSlot{
			Slot:   tx.Slot,
			Offset: tx.Offset,
			Role:   role,
			Peer:   peer,
			FlowID: tx.FlowID,
			Shared: s.packLink(tx.Slot*s.numOffsets+tx.Offset) == SharedCell,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Slot < out[j].Slot })
	return out
}

// DutyCycle returns the fraction of slots in which the device is awake
// (transmitting or receiving) — the energy-relevant metric TSCH scheduling
// optimizes for in battery-powered field devices.
func (s *Schedule) DutyCycle(node int) float64 {
	if s.numSlots == 0 {
		return 0
	}
	busy := 0
	for slot := 0; slot < s.numSlots; slot++ {
		if s.NodeBusy(node, slot) {
			busy++
		}
	}
	return float64(busy) / float64(s.numSlots)
}
