package serving

// The rank surface's query scanner against its specification,
// url.ParseQuery(raw).Get(key).

import (
	"net/url"
	"testing"
)

// queryKeys are the parameters the rank surface reads.
var queryKeys = []string{"q", "alg", "k", "stream"}

// checkQueryParam fails unless queryParam agrees with url.ParseQuery on
// every parameter the surface reads.
func checkQueryParam(t *testing.T, raw string) {
	t.Helper()
	want, _ := url.ParseQuery(raw) // a bad pair is skipped, not fatal: the map holds the rest
	for _, key := range queryKeys {
		if got := queryParam(raw, key); got != want.Get(key) {
			t.Errorf("queryParam(%q, %q) = %q, url.ParseQuery gives %q", raw, key, got, want.Get(key))
		}
	}
}

var queryParamCases = []string{
	"",
	"q=apple+pie&alg=cori&k=5",
	"q=apple%20pie&k=10&stream=1",
	"k=3&q=first&q=second",           // repeated: the first wins
	"q&k=&alg=gloss-sum%400.2",       // no '=', empty value, escaped '@'
	"%71=escaped+key&q=later",        // an escaped key is its unescaped self
	"q=a;b&q=after-semicolon",        // a pair holding ';' is skipped
	"q=bad%zzescape&q=good",          // so is one with a bad escape
	"%zz=1&q=x",                      // or a bad escape in its key
	"&&q=%E6%97%A5%E6%9C%AC&&",       // empty pairs, multi-byte escapes
	"q=%&k=%4",                       // truncated escapes
	"Q=upper&q+=space&q=exact",       // keys match exactly
	"stream=true&stream=1",           // first of several
	"q=a=b=c",                        // the value keeps later '='
	"alg=cori&k=5;&q=x",              // ';' at a pair's end
	"q=%2B%26%3D%3B&k=%30",           // escaped separators are data
	"q=+%2b+",                        // '+' is a space, %2b a plus
	"=nokey&q=%00nul",                // empty key, escaped NUL
	"k=1&k=2&alg=&alg=gloss-ind@0.5", // empty first value wins
}

func TestQueryParamMatchesParseQuery(t *testing.T) {
	for _, raw := range queryParamCases {
		checkQueryParam(t, raw)
	}
}

// TestQueryParamAllocations: a plain value is a slice of the raw query;
// only a value with an escape to undo is copied.
func TestQueryParamAllocations(t *testing.T) {
	for _, c := range []struct {
		raw, key string
		allocs   float64
	}{
		{"q=apple&alg=cori&k=10", "k", 0},
		{"q=apple+pie&alg=cori&k=10", "alg", 0},
		{"q=apple+pie&alg=cori&k=10", "q", 1},
		{"q=apple+pie&alg=cori&k=10", "stream", 0},
	} {
		if n := testing.AllocsPerRun(100, func() { _ = queryParam(c.raw, c.key) }); n != c.allocs {
			t.Errorf("queryParam(%q, %q): %v allocs, want %v", c.raw, c.key, n, c.allocs)
		}
	}
}

// FuzzQueryParam holds the scanner to url.ParseQuery(raw).Get(key) for
// every key the rank surface reads, over arbitrary raw queries.
func FuzzQueryParam(f *testing.F) {
	for _, raw := range queryParamCases {
		f.Add(raw)
	}
	f.Fuzz(checkQueryParam)
}
