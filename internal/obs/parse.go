package obs

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ExpoFamily is one metric family recovered from a text exposition:
// its declared type and every sample series seen under its name.
type ExpoFamily struct {
	Name   string
	Help   string
	Type   string
	Series []string // "name{labels}" of each sample line, in input order
}

var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	helpLine   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) ?(.*)$`)
	typeLine   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	// sampleLine splits "name{labels} value [timestamp]"; the label
	// block is validated separately.
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (\S+)( [0-9]+)?$`)
	// labelPair allows only the escapes the format defines: \\, \" and \n.
	labelPair = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\[\\"n])*"$`)
)

// ParseExposition validates Prometheus text exposition (version 0.0.4)
// and returns the families found, keyed by base name — histogram
// _bucket/_sum/_count samples fold into their declared family. It is
// strict about what the repository's own WritePrometheus emits:
// lines that are not valid UTF-8, malformed sample lines, bad label
// syntax (an escape other than \\, \" and \n among it), unparseable
// values and samples of histogram-suffixed names without a histogram
// TYPE declaration are errors.
func ParseExposition(r io.Reader) (map[string]*ExpoFamily, error) {
	fams := make(map[string]*ExpoFamily)
	fam := func(name string) *ExpoFamily {
		f := fams[name]
		if f == nil {
			f = &ExpoFamily{Name: name}
			fams[name] = f
		}
		return f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	n := 0
	for sc.Scan() {
		n++
		line := sc.Text()
		if !utf8.ValidString(line) {
			return nil, fmt.Errorf("obs: line %d: not valid UTF-8", n)
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if m := helpLine.FindStringSubmatch(line); m != nil {
				fam(m[1]).Help = m[2]
				continue
			}
			if m := typeLine.FindStringSubmatch(line); m != nil {
				f := fam(m[1])
				if f.Type != "" && f.Type != m[2] {
					return nil, fmt.Errorf("obs: line %d: family %s re-typed %s -> %s", n, m[1], f.Type, m[2])
				}
				f.Type = m[2]
				continue
			}
			// Other comments are legal and ignored.
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("obs: line %d: malformed sample %q", n, line)
		}
		name, labels, value := m[1], m[2], m[3]
		if !metricName.MatchString(name) {
			return nil, fmt.Errorf("obs: line %d: bad metric name %q", n, name)
		}
		if labels != "" {
			inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
			if inner != "" {
				for _, pair := range splitLabels(inner) {
					if !labelPair.MatchString(pair) {
						return nil, fmt.Errorf("obs: line %d: bad label %q", n, pair)
					}
				}
			}
		}
		if _, err := parseValue(value); err != nil {
			return nil, fmt.Errorf("obs: line %d: bad value %q: %v", n, value, err)
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suffix)
			if trimmed != name {
				if f, ok := fams[trimmed]; ok && f.Type == "histogram" {
					base = trimmed
				}
				break
			}
		}
		f := fam(base)
		f.Series = append(f.Series, name+labels)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return fams, nil
}

// splitLabels splits a rendered label block on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if depth {
				i++
			}
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

// parseValue accepts floats plus the exposition's infinity spellings.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return strconv.ParseFloat("+Inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-Inf", 64)
	case "NaN":
		return strconv.ParseFloat("NaN", 64)
	}
	return strconv.ParseFloat(s, 64)
}

// TotalSeries sums the sample series across families.
func TotalSeries(fams map[string]*ExpoFamily) int {
	n := 0
	for _, f := range fams {
		n += len(f.Series)
	}
	return n
}
