// Package properties implements parsing and typed access for
// Java-style .properties files, the configuration format used by YCSB
// workload parameter files (Listing 2 of the YCSB+T paper).
//
// The subset implemented matches what YCSB relies on:
//
//   - "key=value" and "key: value" and "key value" separators
//   - leading-whitespace trimming on keys and values
//   - '#' and '!' comment lines
//   - trailing-backslash line continuations
//   - \n, \t, \r, \\, \:, \=, \uXXXX escapes in keys and values
//
// Values are stored as strings; typed getters perform conversion on
// access and fall back to a caller-supplied default when the key is
// absent or malformed, mirroring YCSB's Properties.getProperty usage.
package properties

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Properties is a set of string key/value pairs with typed accessors.
// It is safe for concurrent use: benchmark client threads read
// properties while a status reporter may enumerate them.
type Properties struct {
	mu   sync.RWMutex
	vals map[string]string
}

// New returns an empty property set.
func New() *Properties {
	return &Properties{vals: make(map[string]string)}
}

// FromMap builds a property set from an existing map. The map is
// copied; later changes to m are not reflected.
func FromMap(m map[string]string) *Properties {
	p := New()
	for k, v := range m {
		p.vals[k] = v
	}
	return p
}

// Load parses properties from r and returns the resulting set.
func Load(r io.Reader) (*Properties, error) {
	p := New()
	if err := p.Read(r); err != nil {
		return nil, err
	}
	return p, nil
}

// LoadFile parses the properties file at path.
func LoadFile(path string) (*Properties, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("properties: %w", err)
	}
	defer f.Close()
	p, err := Load(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("properties: parsing %s: %w", path, err)
	}
	return p, nil
}

// Read parses properties from r and merges them into p, overwriting
// duplicate keys with the later value.
func (p *Properties) Read(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var logical strings.Builder
	lineno := 0
	flush := func() error {
		line := logical.String()
		logical.Reset()
		if line == "" {
			return nil
		}
		key, value, err := splitKV(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineno, err)
		}
		if key != "" {
			p.Set(key, value)
		}
		return nil
	}
	for sc.Scan() {
		lineno++
		line := strings.TrimLeft(sc.Text(), " \t\f")
		if logical.Len() == 0 && (line == "" || line[0] == '#' || line[0] == '!') {
			continue
		}
		if hasOddTrailingBackslash(line) {
			logical.WriteString(line[:len(line)-1])
			continue
		}
		logical.WriteString(line)
		if err := flush(); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return flush()
}

// hasOddTrailingBackslash reports whether line ends in an unescaped
// backslash, i.e. a line continuation.
func hasOddTrailingBackslash(line string) bool {
	n := 0
	for i := len(line) - 1; i >= 0 && line[i] == '\\'; i-- {
		n++
	}
	return n%2 == 1
}

// splitKV splits a logical property line into key and value,
// honouring escape sequences.
func splitKV(line string) (key, value string, err error) {
	var kb strings.Builder
	i := 0
	n := len(line)
	for i < n {
		c := line[i]
		if c == '\\' {
			s, adv, err := unescapeAt(line, i)
			if err != nil {
				return "", "", err
			}
			kb.WriteString(s)
			i += adv
			continue
		}
		if c == '=' || c == ':' || c == ' ' || c == '\t' || c == '\f' {
			break
		}
		kb.WriteByte(c)
		i++
	}
	// Skip whitespace, then at most one separator, then whitespace.
	for i < n && (line[i] == ' ' || line[i] == '\t' || line[i] == '\f') {
		i++
	}
	if i < n && (line[i] == '=' || line[i] == ':') {
		i++
	}
	for i < n && (line[i] == ' ' || line[i] == '\t' || line[i] == '\f') {
		i++
	}
	var vb strings.Builder
	for i < n {
		if line[i] == '\\' {
			s, adv, err := unescapeAt(line, i)
			if err != nil {
				return "", "", err
			}
			vb.WriteString(s)
			i += adv
			continue
		}
		vb.WriteByte(line[i])
		i++
	}
	return kb.String(), vb.String(), nil
}

// unescapeAt decodes the escape sequence starting at line[i] (which
// must be a backslash) and returns the decoded string and the number
// of input bytes consumed.
func unescapeAt(line string, i int) (string, int, error) {
	if i+1 >= len(line) {
		return "", 1, nil // lone trailing backslash: drop it
	}
	switch c := line[i+1]; c {
	case 'n':
		return "\n", 2, nil
	case 't':
		return "\t", 2, nil
	case 'r':
		return "\r", 2, nil
	case 'f':
		return "\f", 2, nil
	case 'u':
		if i+6 > len(line) {
			return "", 0, fmt.Errorf("truncated \\u escape in %q", line)
		}
		v, err := strconv.ParseUint(line[i+2:i+6], 16, 32)
		if err != nil {
			return "", 0, fmt.Errorf("bad \\u escape in %q: %w", line, err)
		}
		return string(rune(v)), 6, nil
	default:
		return string(c), 2, nil
	}
}

// Set stores value under key, replacing any previous value.
func (p *Properties) Set(key, value string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.vals[key] = value
}

// Get returns the raw string value for key and whether it was present.
func (p *Properties) Get(key string) (string, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	v, ok := p.vals[key]
	return v, ok
}

// GetString returns the value for key, or def when absent.
func (p *Properties) GetString(key, def string) string {
	if v, ok := p.Get(key); ok {
		return v
	}
	return def
}

// GetInt returns the value for key parsed as an int, or def when the
// key is absent or unparsable.
func (p *Properties) GetInt(key string, def int) int {
	v, ok := p.Get(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil {
		return def
	}
	return n
}

// GetInt64 returns the value for key parsed as an int64, or def.
func (p *Properties) GetInt64(key string, def int64) int64 {
	v, ok := p.Get(key)
	if !ok {
		return def
	}
	n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
	if err != nil {
		return def
	}
	return n
}

// GetFloat returns the value for key parsed as a float64, or def.
func (p *Properties) GetFloat(key string, def float64) float64 {
	v, ok := p.Get(key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil {
		return def
	}
	return f
}

// GetBool returns the value for key parsed as a boolean, or def.
// Accepted spellings follow strconv.ParseBool.
func (p *Properties) GetBool(key string, def bool) bool {
	v, ok := p.Get(key)
	if !ok {
		return def
	}
	b, err := strconv.ParseBool(strings.TrimSpace(v))
	if err != nil {
		return def
	}
	return b
}

// Keys returns all keys in sorted order.
func (p *Properties) Keys() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	keys := make([]string, 0, len(p.vals))
	for k := range p.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Len returns the number of properties stored.
func (p *Properties) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.vals)
}

// Merge copies every property of other into p, overwriting duplicates.
// Passing nil is a no-op.
func (p *Properties) Merge(other *Properties) {
	if other == nil {
		return
	}
	other.mu.RLock()
	defer other.mu.RUnlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, v := range other.vals {
		p.vals[k] = v
	}
}

// Clone returns an independent copy of p.
func (p *Properties) Clone() *Properties {
	p.mu.RLock()
	defer p.mu.RUnlock()
	c := New()
	for k, v := range p.vals {
		c.vals[k] = v
	}
	return c
}

// String renders the property set one pair per line in key order
// with Java-compatible escaping, so the output re-parses to the same
// set; suitable for logging or persisting the effective configuration
// of a run.
func (p *Properties) String() string {
	var b strings.Builder
	for _, k := range p.Keys() {
		v, _ := p.Get(k)
		b.WriteString(escapeKey(k))
		b.WriteByte('=')
		b.WriteString(escapeValue(v))
		b.WriteByte('\n')
	}
	return b.String()
}

// escapeKey escapes every character that would terminate or alter a
// key during parsing.
func escapeKey(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		escapeByte(&b, s[i], true)
	}
	return b.String()
}

// escapeValue escapes control characters and backslashes everywhere,
// and spaces only at the front (where the parser would trim them).
func escapeValue(s string) string {
	var b strings.Builder
	leading := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != ' ' && c != '\t' && c != '\f' {
			leading = false
		}
		escapeByte(&b, c, leading)
	}
	return b.String()
}

// escapeByte writes c to b, escaped as the parser expects. When
// spaceSensitive is set, spaces/tabs/formfeeds are escaped too.
func escapeByte(b *strings.Builder, c byte, spaceSensitive bool) {
	switch c {
	case '\\':
		b.WriteString(`\\`)
	case '\n':
		b.WriteString(`\n`)
	case '\r':
		b.WriteString(`\r`)
	case '\t':
		if spaceSensitive {
			b.WriteString(`\t`)
		} else {
			b.WriteByte(c)
		}
	case '\f':
		if spaceSensitive {
			b.WriteString(`\f`)
		} else {
			b.WriteByte(c)
		}
	case ' ':
		if spaceSensitive {
			b.WriteString(`\ `)
		} else {
			b.WriteByte(c)
		}
	case '=', ':', '#', '!':
		if spaceSensitive {
			b.WriteByte('\\')
		}
		b.WriteByte(c)
	default:
		b.WriteByte(c)
	}
}
