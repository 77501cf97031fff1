// Package mapsink is the maporder fixture: map ranges feeding each
// recognized output sink, plus the allowed shapes (sorted afterwards,
// suppressed with a reason, or no sink at all).
package mapsink

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// emit streams formatted output straight from a map range.
func emit(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `fmt\.Fprintf call inside range over map m`
	}
}

// digest feeds a hash from a map range: the fingerprint-poisoning
// shape.
func digest(m map[string]uint64) [32]byte {
	h := sha256.New()
	for k := range m {
		h.Write([]byte(k)) // want `Write on io\.Writer h inside range over map m`
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// encode streams JSON values in map order.
func encode(enc *json.Encoder, m map[string]int) error {
	for k := range m {
		if err := enc.Encode(k); err != nil { // want `encoding/json\.Encoder\.Encode call inside range over map m`
			return err
		}
	}
	return nil
}

// keys returns an unsorted key slice: callers see a different order
// every run.
func keys(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k) // want `append to returned slice ks \(unsorted afterwards\) inside range over map m`
	}
	return ks
}

// keysSorted is the repository's blessed collect/sort/iterate pattern.
func keysSorted(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// keysSuppressed is order-insensitive by contract and says so.
func keysSuppressed(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k) //mmm:maporder-ok membership set: the one consumer treats it as unordered
	}
	return ks
}

// keysUnreasoned carries a directive with no reason: a bare
// directive does not suppress.
func keysUnreasoned(m map[string]int) []string {
	var ks []string
	for k := range m {
		//mmm:maporder-ok
		ks = append(ks, k) // want `append to returned slice ks \(unsorted afterwards\) inside range over map m`
	}
	return ks
}

// total is an order-insensitive reduction with no sink: never flagged.
func total(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
