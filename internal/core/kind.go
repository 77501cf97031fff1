package core

import (
	"fmt"
	"strconv"
	"strings"
)

// AllKinds lists every evaluated system configuration in Kind order.
func AllKinds() []Kind {
	return []Kind{
		KindNoDMR2X, KindNoDMR, KindReunion, KindDMRBase,
		KindMMMIPC, KindMMMTP, KindSingleOS,
	}
}

// kindAliases maps accepted spellings (lower-cased) onto kinds: the
// canonical String() forms plus the hyphenated command-line aliases
// mmmsim has always accepted.
var kindAliases = map[string]Kind{
	"nodmr2x":   KindNoDMR2X,
	"no-dmr-2x": KindNoDMR2X,
	"nodmr":     KindNoDMR,
	"no-dmr":    KindNoDMR,
	"reunion":   KindReunion,
	"dmrbase":   KindDMRBase,
	"dmr-base":  KindDMRBase,
	"mmm-ipc":   KindMMMIPC,
	"mmm-tp":    KindMMMTP,
	"singleos":  KindSingleOS,
	"single-os": KindSingleOS,
}

// ParseKind resolves a system-kind name, case-insensitively, accepting
// both the canonical String() form ("MMM-IPC") and the hyphenated CLI
// alias ("mmm-ipc"). The error lists the canonical names.
func ParseKind(name string) (Kind, error) {
	if k, ok := kindAliases[strings.ToLower(strings.TrimSpace(name))]; ok {
		return k, nil
	}
	names := make([]string, 0, len(AllKinds()))
	for _, k := range AllKinds() {
		names = append(names, k.String())
	}
	return 0, fmt.Errorf("core: unknown system kind %q (valid: %s)", name, strings.Join(names, ", "))
}

// MarshalJSON renders the kind by name, so campaign jobs, cached
// metrics and the distributed wire protocol read "MMM-IPC" instead of
// a bare enum integer.
func (k Kind) MarshalJSON() ([]byte, error) {
	name := k.String()
	if name == "?" {
		return nil, fmt.Errorf("core: cannot marshal unknown kind %d", int(k))
	}
	return strconv.AppendQuote(nil, name), nil
}

// UnmarshalJSON accepts the named form only: a bare enum integer is
// rejected.
func (k *Kind) UnmarshalJSON(data []byte) error {
	s := string(data)
	if len(s) == 0 || s[0] != '"' {
		return fmt.Errorf("core: kind must be a quoted name, got %s", s)
	}
	name, err := strconv.Unquote(s)
	if err != nil {
		return err
	}
	kk, err := ParseKind(name)
	if err != nil {
		return err
	}
	*k = kk
	return nil
}
