package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/bits"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// DecodeRunRequest decodes a POST /v1/run body into r exactly as
// json.Unmarshal(data, r) does, result and error alike.
//
// The shape every client sends — one flat object whose keys are
// RunRequest's exact JSON names, with string and number values — is decoded
// in one pass over data. Every decoded string is a copy, so data may be
// reused as soon as the call returns. Any other input (another key
// spelling, an unknown key, null, a nested value, invalid UTF-8, a lone
// surrogate, a malformed or out-of-range number, trailing data) goes to
// json.Unmarshal, which is the only path that runs on such input and the
// reference the one-pass path must agree with.
func DecodeRunRequest(data []byte, r *RunRequest) error {
	v := *r
	if decodeFlat(data, &v) {
		*r = v
		return nil
	}
	return json.Unmarshal(data, r)
}

// decodeFlat is the one-pass decoder. False means "not a shape it
// decodes", never "invalid": judging the input is left to json.Unmarshal.
func decodeFlat(data []byte, r *RunRequest) bool {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return skipSpace(data, i+1) == len(data)
	}
	for {
		// A key that matches a field name exactly holds no escape, so the
		// first quote ends it; any other key matches no case below.
		if i == len(data) || data[i] != '"' {
			return false
		}
		n := bytes.IndexByte(data[i+1:], '"')
		if n < 0 {
			return false
		}
		key := data[i+1 : i+1+n]
		i = skipSpace(data, i+n+2)
		if i == len(data) || data[i] != ':' {
			return false
		}
		i = skipSpace(data, i+1)
		var (
			ok bool
			x  int64
		)
		switch string(key) {
		case "workload":
			r.Workload, i, ok = decodeString(data, i)
		case "source":
			r.Source, i, ok = decodeString(data, i)
		case "kind":
			r.Kind, i, ok = decodeString(data, i)
		case "mode":
			r.Mode, i, ok = decodeString(data, i)
		case "threshold":
			r.Threshold, i, ok = decodeFloat(data, i)
		case "delay":
			x, i, ok = decodeInt(data, i, 32, true)
			r.Delay = int32(x)
		case "decay":
			x, i, ok = decodeInt(data, i, 32, false)
			r.Decay = uint32(x)
		case "maxSteps":
			r.MaxSteps, i, ok = decodeInt(data, i, 64, true)
		case "timeoutMs":
			r.TimeoutMs, i, ok = decodeInt(data, i, 64, true)
		}
		if !ok {
			return false
		}
		i = skipSpace(data, i)
		if i == len(data) {
			return false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case '}':
			return skipSpace(data, i+1) == len(data)
		default:
			return false
		}
	}
}

func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

const (
	lsb = 0x0101010101010101
	msb = 0x8080808080808080
)

// skipPlain returns the index of the first byte at or after i that a JSON
// string cannot copy through on its own: a quote, a backslash, a control
// character (below 0x20) or a byte with its top bit set. It tests eight
// bytes at a time (a quote or backslash is a zero byte after the XOR); a
// borrow can only flag bytes above a truly special one, so the lowest
// flagged byte is the answer.
func skipPlain(data []byte, i int) int {
	for ; i+8 <= len(data); i += 8 {
		x := binary.LittleEndian.Uint64(data[i:])
		q, b := x^(lsb*'"'), x^(lsb*'\\')
		if m := ((q-lsb)&^q | (b-lsb)&^b | (x-lsb*0x20)&^x | x) & msb; m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for ; i < len(data); i++ {
		if c := data[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' {
			break
		}
	}
	return i
}

// decodeString decodes the JSON string whose opening quote is data[i] and
// returns it with the index just past its closing quote. Runs of plain
// bytes and valid UTF-8 are copied in bulk; the result costs one
// allocation.
func decodeString(data []byte, i int) (string, int, bool) {
	if i == len(data) || data[i] != '"' {
		return "", i, false
	}
	start := i + 1
	i, ok := skipRun(data, start)
	if !ok {
		return "", i, false
	}
	if data[i] == '"' {
		return string(data[start:i]), i + 1, true
	}
	// An escape: the raw length bounds the decoded one, since every escape
	// is longer than what it decodes to.
	end := closingQuote(data, i)
	if end < 0 {
		return "", i, false
	}
	var b strings.Builder
	b.Grow(end - start)
	b.Write(data[start:i])
	for data[i] == '\\' {
		if i+1 == len(data) {
			return "", i, false
		}
		switch c := data[i+1]; c {
		case '"', '\\', '/':
			b.WriteByte(c)
		case 'b':
			b.WriteByte('\b')
		case 'f':
			b.WriteByte('\f')
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 't':
			b.WriteByte('\t')
		case 'u':
			r := hex4(data, i+2)
			if r < 0 {
				return "", i, false
			}
			if utf16.IsSurrogate(r) {
				// Only a high surrogate followed by an escaped low one is a
				// rune; json.Unmarshal writes U+FFFD for anything else.
				r2 := rune(-1)
				if i+7 < len(data) && data[i+6] == '\\' && data[i+7] == 'u' {
					r2 = hex4(data, i+8)
				}
				if r = utf16.DecodeRune(r, r2); r == utf8.RuneError {
					return "", i, false
				}
				i += 6
			}
			b.WriteRune(r)
			i += 4
		default:
			return "", i, false
		}
		i += 2
		j, ok := skipRun(data, i)
		if !ok {
			return "", j, false
		}
		b.Write(data[i:j])
		i = j
	}
	return b.String(), i + 1, true
}

// skipRun returns the index of the first quote or backslash at or after i.
// ok is false at the end of data, at a control character and at invalid
// UTF-8, none of which a run may contain.
func skipRun(data []byte, i int) (int, bool) {
	for {
		i = skipPlain(data, i)
		if i == len(data) {
			return i, false
		}
		c := data[i]
		if c == '"' || c == '\\' {
			return i, true
		}
		if c < utf8.RuneSelf {
			return i, false
		}
		r, size := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && size == 1 {
			return i, false
		}
		i += size
	}
}

// closingQuote returns the index of the quote that ends a string whose
// first escape is at data[from], or -1. A quote behind an odd run of
// backslashes is escaped.
func closingQuote(data []byte, from int) int {
	for i := from; ; {
		n := bytes.IndexByte(data[i:], '"')
		if n < 0 {
			return -1
		}
		q := i + n
		k := q
		for k > from && data[k-1] == '\\' {
			k--
		}
		if (q-k)%2 == 0 {
			return q
		}
		i = q + 1
	}
}

// hex4 decodes the four hex digits of a \u escape at data[i], or returns -1.
func hex4(data []byte, i int) rune {
	if i+4 > len(data) {
		return -1
	}
	var r rune
	for _, c := range data[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// decodeInt decodes the JSON integer at data[i] for a field of the given
// width and signedness. A fraction or exponent ends the token early, and
// the caller's separator check then falls back; json.Unmarshal refuses
// both for integer fields too.
func decodeInt(data []byte, i int, bits uint, signed bool) (int64, int, bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		if !signed {
			return 0, i, false
		}
		i++
	}
	start := i
	i = skipDigits(data, i)
	// At most 19 digits, so n cannot wrap; no leading zeros.
	if n := i - start; n == 0 || n > 19 || n > 1 && data[start] == '0' {
		return 0, i, false
	}
	var n uint64
	for _, c := range data[start:i] {
		n = n*10 + uint64(c-'0')
	}
	limit := uint64(1)<<bits - 1
	if signed {
		limit = uint64(1)<<(bits-1) - 1
		if neg {
			limit++
		}
	}
	if n > limit {
		return 0, i, false
	}
	if neg {
		return -int64(n), i, true
	}
	return int64(n), i, true
}

// decodeFloat checks the JSON number grammar at data[i] and parses the
// token as json.Unmarshal does, with strconv.ParseFloat.
func decodeFloat(data []byte, i int) (float64, int, bool) {
	start := i
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = skipDigits(data, i)
	default:
		return 0, i, false
	}
	if i < len(data) && data[i] == '.' {
		j := skipDigits(data, i+1)
		if j == i+1 {
			return 0, j, false
		}
		i = j
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := skipDigits(data, i)
		if j == i {
			return 0, j, false
		}
		i = j
	}
	f, err := strconv.ParseFloat(string(data[start:i]), 64)
	return f, i, err == nil
}

func skipDigits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}
