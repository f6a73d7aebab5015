package geom

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// MarshalJSON renders r as {"lo":[…],"hi":[…]}, and the empty rectangle
// as null. JSON has no infinities, so an unbounded side is written as
// the string "-Inf" or "+Inf" in place of the number.
func (r Rect) MarshalJSON() ([]byte, error) {
	if r.IsEmpty() {
		return []byte("null"), nil
	}
	var b bytes.Buffer
	b.WriteString(`{"lo":`)
	writeBounds(&b, r.lo)
	b.WriteString(`,"hi":`)
	writeBounds(&b, r.hi)
	b.WriteByte('}')
	return b.Bytes(), nil
}

func writeBounds(b *bytes.Buffer, vs []float64) {
	b.WriteByte('[')
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(',')
		}
		if math.IsInf(v, 0) {
			b.WriteString(strconv.Quote(strconv.FormatFloat(v, 'g', -1, 64)))
		} else {
			b.Write(strconv.AppendFloat(b.AvailableBuffer(), v, 'g', -1, 64))
		}
	}
	b.WriteByte(']')
}

// UnmarshalJSON reads what MarshalJSON writes, holding the result to
// NewRect's rules (equal non-zero dimensions, no NaN, lo <= hi).
func (r *Rect) UnmarshalJSON(data []byte) error {
	if bytes.Equal(bytes.TrimSpace(data), []byte("null")) {
		*r = Rect{}
		return nil
	}
	var raw struct{ Lo, Hi []jsonBound }
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("geom: decoding rectangle: %w", err)
	}
	lo, hi := make([]float64, len(raw.Lo)), make([]float64, len(raw.Hi))
	for i, v := range raw.Lo {
		lo[i] = float64(v)
	}
	for i, v := range raw.Hi {
		hi[i] = float64(v)
	}
	got, err := NewRect(lo, hi)
	if err != nil {
		return err
	}
	*r = got
	return nil
}

// jsonBound is one side of a rectangle on the wire: a JSON number, or
// the string form of an infinity.
type jsonBound float64

func (v *jsonBound) UnmarshalJSON(data []byte) error {
	s := string(data)
	if len(s) > 0 && s[0] == '"' {
		var err error
		if s, err = strconv.Unquote(s); err != nil {
			return fmt.Errorf("geom: bound %s: %w", data, err)
		}
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("geom: bound %s: %w", data, err)
	}
	*v = jsonBound(f)
	return nil
}
