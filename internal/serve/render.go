package serve

import (
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"infoflow/internal/graph"
)

// Every body flowserve writes — the four endpoints' answers, /healthz
// and errors — is appended by hand into one buffer and sent with one
// Write. Each payload struct renders its own fields in declaration
// order, byte for byte as encoding/json renders the struct: omitempty
// fields drop out at their zero value, strings are escaped HTML-safe
// (appendString), floats take encoding/json's format (appendFloat), a
// nil slice is null, and the body ends with the newline json.Encoder
// writes. A cache hit then pays for the bytes it sends and nothing
// else: no reflection, no node list formatted id by id, and no second
// scan of a law's bytes. The structs stay the payload schema clients
// decode into; render_test.go holds every body kind to encoding/json's
// bytes.
//
// Every float a body carries is finite — a probability, a rate, a mean
// or a count times a scale — so rendering has no error path.

// bufs recycles the buffers a request appends its cache key (see
// lookup) and its body into. Write copies a body out, so its buffer is
// free once Write returns. A buffer past maxPooledBuf, say a long
// /impact law, is left to the collector rather than kept.
var bufs = sync.Pool{New: func() any {
	p := new(pooledBuf)
	p.b = p.first[:0]
	return p
}}

const maxPooledBuf = 64 << 10

// pooledBuf is a buffer of bufs. Its first array is inline, so a refill
// of the pool is one allocation, not two. Refills are rare, but the race
// detector drops a quarter of a Pool's Puts, and TestServeHitAllocs
// counts allocations under it too.
type pooledBuf struct {
	b     []byte
	first [1024]byte
}

// putBuf returns p to bufs holding b, what was last appended into it,
// unless b has grown past maxPooledBuf.
func putBuf(p *pooledBuf, b []byte) {
	if cap(b) <= maxPooledBuf {
		p.b = b
		bufs.Put(p)
	}
}

// jsonContentType is every body's Content-Type header value. Header
// values are only ever replaced or appended to, never written in place,
// so every response can share it.
var jsonContentType = []string{"application/json"}

// writeBody renders a body with render, which appends it to the buffer
// it is given, and writes it with its trailing newline in one Write.
func writeBody(w http.ResponseWriter, status int, render func([]byte) []byte) {
	buf := bufs.Get().(*pooledBuf)
	b := append(render(buf.b[:0]), '\n')
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	w.Write(b)
	putBuf(buf, b)
}

func writeError(w http.ResponseWriter, herr *httpError) {
	writeBody(w, herr.status, func(b []byte) []byte { return appendMessage(b, "error", herr.msg) })
}

// appendMessage renders a one-field body, {"<name>":"<msg>"}: an error,
// or /healthz's status.
func appendMessage(b []byte, name, msg string) []byte {
	b = append(append(append(b, `{"`...), name...), `":`...)
	return append(appendString(b, msg), '}')
}

// nodeList is a node set in the canonical form a query's nodesKey
// holds: distinct ids, ascending, in plain decimal, comma separated. Its
// JSON form is the array of those ids, so a body echoes the list as it
// is, between brackets.
type nodeList string

func appendNodeList(b []byte, l nodeList) []byte {
	return append(append(append(b, '['), l...), ']')
}

func appendNodes(b []byte, nodes []graph.NodeID) []byte {
	if nodes == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range nodes {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

func appendFloats(b []byte, fs []float64) []byte {
	if fs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, f)
	}
	return append(b, ']')
}

// zeroTail is a run of a law's zero entries, each with its leading
// comma; appendLaw copies its tail from it in blocks.
var zeroTail = strings.Repeat(",0", 2048)

// appendLaw renders a law as the full-length vector the estimator
// returned: its support, then a 0 for each entry of the zero tail, which
// a subcritical cascade makes almost all of a law on a large model.
func appendLaw(b []byte, l sizeLaw) []byte {
	b = append(b, '[')
	for i, p := range l.support {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, p)
	}
	zeros := l.length - len(l.support)
	if zeros > 0 && len(l.support) == 0 {
		b = append(b, '0')
		zeros--
	}
	for zeros > 0 {
		n := min(zeros, len(zeroTail)/2)
		b = append(b, zeroTail[:2*n]...)
		zeros -= n
	}
	return append(b, ']')
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}

// appendFloat renders a finite float as encoding/json does: the
// shortest decimal that round-trips, in plain notation, except in
// exponent notation below 1e-6 and from 1e21 up, with a one-digit
// negative exponent left unpadded (1e-7, not 1e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs > 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString renders s as a JSON string as encoding/json does, HTML
// escaping included: `"` and `\` are backslashed; \b, \f, \n, \r and \t
// take their short escapes; every other byte below 0x20, and <, > and &,
// becomes \u00XX; each invalid UTF-8 byte becomes \ufffd; and U+2028 and
// U+2029 are escaped for JavaScript's sake. Runs of other bytes are
// copied whole.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

const hexDigits = "0123456789abcdef"

// appendFields renders a batch's stats as the fields they add to a body,
// each omitted at zero.
func (bs batchStats) appendFields(b []byte) []byte {
	if bs.BatchSize != 0 {
		b = strconv.AppendInt(append(b, `,"batch_size":`...), int64(bs.BatchSize), 10)
	}
	if bs.Lanes != 0 {
		b = strconv.AppendInt(append(b, `,"lanes":`...), int64(bs.Lanes), 10)
	}
	if bs.Acceptance < 0 || bs.Acceptance > 0 {
		b = appendFloat(append(b, `,"acceptance_rate":`...), bs.Acceptance)
	}
	return b
}

func (r *flowResponse) appendJSON(b []byte) []byte {
	b = appendString(append(b, `{"model":`...), r.Model)
	b = strconv.AppendInt(append(b, `,"source":`...), int64(r.Source), 10)
	b = strconv.AppendInt(append(b, `,"sink":`...), int64(r.Sink), 10)
	if r.Cond != "" {
		b = appendString(append(b, `,"cond":`...), r.Cond)
	}
	b = appendFloat(append(b, `,"prob":`...), r.Prob)
	b = strconv.AppendInt(append(b, `,"samples":`...), int64(r.Samples), 10)
	b = strconv.AppendUint(append(b, `,"seed":`...), r.Seed, 10)
	b = appendBool(append(b, `,"cached":`...), r.Cached)
	return append(r.batchStats.appendFields(b), '}')
}

func (r *communityResponse) appendJSON(b []byte) []byte {
	b = appendString(append(b, `{"model":`...), r.Model)
	b = strconv.AppendInt(append(b, `,"source":`...), int64(r.Source), 10)
	if r.Cond != "" {
		b = appendString(append(b, `,"cond":`...), r.Cond)
	}
	b = strconv.AppendInt(append(b, `,"samples":`...), int64(r.Samples), 10)
	b = strconv.AppendUint(append(b, `,"seed":`...), r.Seed, 10)
	b = appendBool(append(b, `,"cached":`...), r.Cached)
	b = append(b, `,"top":`...)
	if r.Top == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, e := range r.Top {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `{"node":`...), int64(e.Node), 10)
			b = append(appendFloat(append(b, `,"prob":`...), e.Prob), '}')
		}
		b = append(b, ']')
	}
	return append(r.batchStats.appendFields(b), '}')
}

func (r *impactResponse) appendJSON(b []byte) []byte {
	b = appendString(append(b, `{"model":`...), r.Model)
	b = appendNodeList(append(b, `,"sources":`...), r.Sources)
	if r.Cond != "" {
		b = appendString(append(b, `,"cond":`...), r.Cond)
	}
	b = appendString(append(b, `,"mode":`...), r.Mode)
	b = appendString(append(b, `,"method":`...), r.Method)
	b = appendBool(append(b, `,"exact":`...), r.Exact)
	b = appendFloat(append(b, `,"mean":`...), r.Mean)
	b = appendLaw(append(b, `,"dist":`...), r.Dist)
	if r.Samples != 0 {
		b = strconv.AppendInt(append(b, `,"samples":`...), int64(r.Samples), 10)
	}
	if r.Seed != 0 {
		b = strconv.AppendUint(append(b, `,"seed":`...), r.Seed, 10)
	}
	b = appendBool(append(b, `,"cached":`...), r.Cached)
	return append(r.batchStats.appendFields(b), '}')
}

func (r *maximizeResponse) appendJSON(b []byte) []byte {
	b = appendString(append(b, `{"model":`...), r.Model)
	b = strconv.AppendInt(append(b, `,"k":`...), int64(r.K), 10)
	if r.Community != "" {
		b = appendNodeList(append(b, `,"community":`...), r.Community)
	}
	if r.Cond != "" {
		b = appendString(append(b, `,"cond":`...), r.Cond)
	}
	b = appendNodes(append(b, `,"seeds":`...), r.Seeds)
	b = appendFloats(append(b, `,"marginal_gains":`...), r.MarginalGains)
	b = appendFloat(append(b, `,"spread_estimate":`...), r.SpreadEstimate)
	b = strconv.AppendInt(append(b, `,"universe":`...), int64(r.Universe), 10)
	b = strconv.AppendInt(append(b, `,"rr_sets":`...), int64(r.RRSets), 10)
	b = strconv.AppendInt(append(b, `,"samples":`...), int64(r.Samples), 10)
	b = strconv.AppendInt(append(b, `,"roots":`...), int64(r.Roots), 10)
	b = strconv.AppendUint(append(b, `,"seed":`...), r.Seed, 10)
	return append(appendBool(append(b, `,"cached":`...), r.Cached), '}')
}
