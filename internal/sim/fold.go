package sim

import (
	"strings"
	"unicode/utf8"

	"webiq/internal/nlp"
)

// fold normalizes a value for comparison: trimmed of surrounding space
// and lower-cased. It is the string-returning form; the hot paths use
// foldAppend to reuse a caller-owned buffer instead.
func fold(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// foldAppend appends fold(s) to dst byte-for-byte and returns the
// extended slice. The output is kept exactly identical to
// strings.ToLower(strings.TrimSpace(s)) — including the replacement of
// invalid UTF-8 with U+FFFD that strings.Map performs — because folded
// values feed maps and engine queries whose behavior is pinned by the
// determinism tests.
func foldAppend(dst []byte, s string) []byte {
	return nlp.AppendLower(dst, strings.TrimSpace(s))
}

// isASCII reports whether b contains only ASCII bytes.
func isASCII(b []byte) bool {
	for _, c := range b {
		if c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}
