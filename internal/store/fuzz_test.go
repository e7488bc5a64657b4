package store

import (
	"errors"
	"testing"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
)

// FuzzDecoder throws arbitrary bytes at the record codec: every accessor
// must either succeed or fail with ErrCorrupt — never panic or loop.
func FuzzDecoder(f *testing.F) {
	var e Encoder
	e.PutUvarint(7)
	e.PutVarint(-3)
	e.PutString("seed")
	e.PutBytes([]byte{1, 2})
	e.PutFloat64(1.5)
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		for {
			switch len(data) % 5 {
			case 0:
				if _, err := d.Uvarint(); err != nil {
					requireCorrupt(t, err)
					return
				}
			case 1:
				if _, err := d.Varint(); err != nil {
					requireCorrupt(t, err)
					return
				}
			case 2:
				if _, err := d.String(); err != nil {
					requireCorrupt(t, err)
					return
				}
			case 3:
				if _, err := d.Bytes(); err != nil {
					requireCorrupt(t, err)
					return
				}
			case 4:
				if _, err := d.Float64(); err != nil {
					requireCorrupt(t, err)
					return
				}
			}
			if d.Remaining() == 0 {
				return
			}
		}
	})
}

func requireCorrupt(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v does not wrap ErrCorrupt", err)
	}
}

// FuzzCitationCodec throws arbitrary bytes at the citation record codec.
// Any successful decode must satisfy the strict-ascent concept invariant
// and survive an encode/decode round trip unchanged; any failure must wrap
// ErrCorrupt. The seeds cover the asymmetry this guards against: records
// hand-encoded with unsorted, duplicate, and empty concept lists, which
// the encoder refuses and the decoder must therefore reject too.
func FuzzCitationCodec(f *testing.F) {
	valid := corpus.Citation{
		ID: 12345, Title: "seed citation", Authors: []string{"Ada L", "Grace H"},
		Year: 2008, Terms: []string{"protein", "p53"},
		Concepts: []hierarchy.ConceptID{3, 7, 8, 40},
	}
	var enc Encoder
	if err := encodeCitation(&enc, &valid); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), enc.Bytes()...))

	// rawConcepts encodes a citation header followed by the given concept
	// deltas verbatim — bypassing encodeCitation's validation, the way a
	// pre-fix writer or corrupted disk could.
	rawConcepts := func(deltas ...uint64) []byte {
		var e Encoder
		e.PutVarint(99)
		e.PutString("bad concepts")
		e.PutUvarint(2008)
		e.PutUvarint(0) // authors
		e.PutUvarint(0) // terms
		e.PutUvarint(uint64(len(deltas)))
		for _, d := range deltas {
			e.PutUvarint(d)
		}
		return append([]byte(nil), e.Bytes()...)
	}
	f.Add(rawConcepts())                    // empty concepts: valid
	f.Add(rawConcepts(5, 0))                // duplicate (zero delta)
	f.Add(rawConcepts(0))                   // non-positive first concept
	f.Add(rawConcepts(3, 1<<63))            // overflow wraps descending
	f.Add(enc.Bytes()[:len(enc.Bytes())-2]) // truncated tail

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeCitation(data)
		if err != nil {
			requireCorrupt(t, err)
			return
		}
		if !conceptsStrictlyAscending(c.Concepts) {
			t.Fatalf("decode accepted non-ascending concepts %v", c.Concepts)
		}
		var re Encoder
		if err := encodeCitation(&re, &c); err != nil {
			t.Fatalf("re-encode of a decoded citation failed: %v", err)
		}
		back, err := decodeCitation(re.Bytes())
		if err != nil {
			t.Fatalf("round trip decode failed: %v", err)
		}
		if back.ID != c.ID || back.Title != c.Title || back.Year != c.Year ||
			len(back.Authors) != len(c.Authors) || len(back.Terms) != len(c.Terms) ||
			len(back.Concepts) != len(c.Concepts) {
			t.Fatalf("round trip changed the citation: %+v vs %+v", back, c)
		}
		for i := range c.Concepts {
			if back.Concepts[i] != c.Concepts[i] {
				t.Fatalf("round trip changed concept %d", i)
			}
		}
	})
}
