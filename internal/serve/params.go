package serve

import (
	"net/url"
	"strings"
)

// param is a query parameter an endpoint reads, a slot of params.
type param uint8

const (
	pModel param = iota
	pSource
	pSink
	pSources
	pMode
	pK
	pCommunity
	pCond
	pSamples
	pRoots
	pSeed
	pTimeout
	pTop
	numParams
)

// paramNames names each param, in slot order.
var paramNames = [numParams]string{
	pModel: "model", pSource: "source", pSink: "sink", pSources: "sources", pMode: "mode",
	pK: "k", pCommunity: "community", pCond: "cond", pSamples: "samples", pRoots: "roots",
	pSeed: "seed", pTimeout: "timeout", pTop: "top",
}

// params holds a request's value of every parameter the endpoints read,
// "" where it is absent.
type params [numParams]string

// readParams reads the parameters the endpoints know from a raw query
// string in one pass, with no map, to the values
// url.ParseQuery(raw).Get(name) returns. Pairs split on '&'; a pair
// holding ';' and an empty pair are skipped; a pair splits at its first
// '='; its key and value are unescaped ('+' to a space, %XX decoded),
// and a pair either of them fails to unescape in is skipped; of a key's
// remaining pairs the first wins. A key or value holding neither '%' nor
// '+' is taken as it is, so a long node list is never copied.
func readParams(raw string) params {
	var p params
	var seen uint16
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		key, val, _ := strings.Cut(pair, "=")
		key, ok := unescapeParam(key)
		if !ok {
			continue
		}
		i := paramOf(key)
		if i == numParams || seen&(1<<i) != 0 {
			continue
		}
		if val, ok = unescapeParam(val); !ok {
			continue
		}
		seen |= 1 << i
		p[i] = val
	}
	return p
}

// paramOf returns the slot named key, or numParams for a key no
// endpoint reads.
func paramOf(key string) param {
	for i, name := range paramNames {
		if key == name {
			return param(i)
		}
	}
	return numParams
}

// unescapeParam decodes a query key or value as url.QueryUnescape does,
// reporting whether it was well formed; one with nothing to decode is
// returned as it is.
func unescapeParam(s string) (string, bool) {
	if strings.IndexByte(s, '%') < 0 && strings.IndexByte(s, '+') < 0 {
		return s, true
	}
	u, err := url.QueryUnescape(s)
	return u, err == nil
}
