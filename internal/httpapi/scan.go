package httpapi

import (
	"encoding/json"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"docs"
)

// publication is the tasks of a /publish body.
type publication []docs.Task

// decode decodes a /publish body into p. The scanner takes the canonical
// body — what json.Marshal writes for it: exact lower-case keys, each at
// most once; integers in int range; valid UTF-8 strings with any escape and
// paired \u surrogates; whitespace anywhere; nothing after the value — in
// one pass, without reflection. json.Unmarshal decodes every other body and
// so decides every error; where the scanner decodes a body, json.Unmarshal
// decodes it to the same tasks (FuzzPublishBodyMatchesJSON). The scanner's
// strings are cut from the body, which the publish hands over as it is: a
// campaign keeps none of them, only the publication record it encodes.
func (p *publication) decode(body string) error {
	if tasks, ok := scanPublish(body); ok {
		*p = tasks
		return nil
	}
	var req publishRequest
	err := json.Unmarshal([]byte(body), &req)
	for _, t := range req.Tasks {
		*p = append(*p, docs.Task(t))
	}
	return err
}

// scanPublish decodes a canonical /publish body,
// {"tasks":[{"id":…,"text":…,"choices":[…],"golden_truth":…},…]}, or
// reports false. A string without an escape is a substring of body, and
// every task's choices share one slab.
func scanPublish(body string) ([]docs.Task, bool) {
	// A dataset task takes about 135 bytes and holds two or three choices:
	// sized for that, the slices seldom grow.
	s := scanner{b: body}
	tasks, slab := make([]docs.Task, 0, len(body)/128), make([]string, 0, len(body)/48)
	var top uint8
	ok := s.object(func(key string) bool {
		return key == "tasks" && once(&top, 1) && s.list('[', ']', func() bool {
			t, seen := docs.Task{}, uint8(0)
			ok := s.object(func(key string) bool {
				switch key {
				case "id":
					return once(&seen, 1) && s.int(&t.ID)
				case "text":
					return once(&seen, 2) && s.str(&t.Text)
				case "choices":
					lo := len(slab)
					ok := once(&seen, 4) && s.list('[', ']', func() bool {
						slab = append(slab, "")
						return s.str(&slab[len(slab)-1])
					})
					// Capped: an append to one task's choices cannot
					// overwrite the next task's.
					t.Choices = slab[lo:len(slab):len(slab)]
					return ok
				case "golden_truth":
					return once(&seen, 8) && s.int(&t.GoldenTruth)
				}
				return false
			})
			tasks = append(tasks, t)
			return ok
		})
	})
	s.ws()
	return tasks, ok && top == 1 && s.i == len(s.b)
}

// scanner reads a body in the canonical subset; each method reports
// whether what it read is in it.
type scanner struct {
	b string // the body
	i int    // the next byte of b
}

// ws skips whitespace.
func (s *scanner) ws() {
	for ; s.i < len(s.b); s.i++ {
		if c := s.b[s.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
	}
}

// lit consumes c after any whitespace.
func (s *scanner) lit(c byte) bool {
	s.ws()
	ok := s.i < len(s.b) && s.b[s.i] == c
	if ok {
		s.i++
	}
	return ok
}

// list decodes comma-separated elements between open and close.
func (s *scanner) list(open, close byte, elem func() bool) bool {
	if !s.lit(open) {
		return false
	}
	if s.lit(close) {
		return true
	}
	for elem() {
		if !s.lit(',') {
			return s.lit(close)
		}
	}
	return false
}

// object hands each key to field, which decodes its value. A key holding
// an escape matches no key the schema knows.
func (s *scanner) object(field func(key string) bool) bool {
	return s.list('{', '}', func() bool {
		quoted := s.lit('"')
		n := strings.IndexByte(s.b[s.i:], '"')
		if !quoted || n < 0 {
			return false
		}
		key := s.b[s.i : s.i+n]
		s.i += n + 1
		return s.lit(':') && field(key)
	})
}

// once reports whether bit is not yet in *seen, and adds it.
func once(seen *uint8, bit uint8) bool {
	fresh := *seen&bit == 0
	*seen |= bit
	return fresh
}

// int decodes an integer into *v; a fraction or an exponent fails the
// caller's next token.
func (s *scanner) int(v *int) bool {
	s.ws()
	start := s.i
	for s.i < len(s.b) && (s.b[s.i] == '-' || '0' <= s.b[s.i] && s.b[s.i] <= '9') {
		s.i++
	}
	n, err := strconv.Atoi(s.b[start:s.i])
	*v = n
	// Atoi takes 01 for 1; JSON has no leading zero.
	digits := strings.TrimPrefix(s.b[start:s.i], "-")
	return err == nil && (len(digits) == 1 || digits[0] != '0')
}

// str decodes a string into *v: a substring of the body when it holds no
// escape, a string of its own when it does.
func (s *scanner) str(v *string) bool {
	if !s.lit('"') {
		return false
	}
	var buf []byte // the string so far, from its first escape on
	for run := s.i; s.i < len(s.b); {
		switch c := s.b[s.i]; {
		case c == '"':
			if *v = s.b[run:s.i]; buf != nil {
				*v = string(append(buf, *v...))
			}
			s.i++
			return true
		case c == '\\':
			var ok bool
			if buf, ok = s.escape(append(buf, s.b[run:s.i]...)); !ok {
				return false
			}
			run = s.i
		case ' ' <= c && c < utf8.RuneSelf:
			s.i++
		default:
			// A control byte is an error to json.Unmarshal, and a byte
			// that is not UTF-8 its U+FFFD.
			r, n := utf8.DecodeRuneInString(s.b[s.i:])
			if c < ' ' || r == utf8.RuneError && n == 1 {
				return false
			}
			s.i += n
		}
	}
	return false
}

// escape decodes the escape sequence at s.b[s.i] onto buf.
func (s *scanner) escape(buf []byte) ([]byte, bool) {
	if s.i+1 >= len(s.b) {
		return buf, false
	}
	c := s.b[s.i+1]
	s.i += 2
	if k := strings.IndexByte(`"\/bfnrt`, c); k >= 0 {
		return append(buf, "\"\\/\b\f\n\r\t"[k]), true
	}
	r := rune(-1)
	if c == 'u' {
		r = s.hex4()
	}
	if utf16.IsSurrogate(r) {
		// Only a pair stands for itself: json.Unmarshal makes a lone half
		// U+FFFD.
		lo := rune(-1)
		if strings.HasPrefix(s.b[s.i:], `\u`) {
			s.i += 2
			lo = s.hex4()
		}
		if r = utf16.DecodeRune(r, lo); r == utf8.RuneError {
			return buf, false
		}
	}
	return utf8.AppendRune(buf, r), r >= 0
}

// hex4 decodes the four hex digits at s.b[s.i], or returns -1.
func (s *scanner) hex4() rune {
	if len(s.b)-s.i < 4 {
		return -1
	}
	n, err := strconv.ParseUint(s.b[s.i:s.i+4], 16, 16)
	if err != nil {
		return -1
	}
	s.i += 4
	return rune(n)
}
