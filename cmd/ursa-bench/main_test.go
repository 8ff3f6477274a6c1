package main

import (
	"reflect"
	"testing"
)

func TestParseInts(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
	}{
		{"", nil},
		{"8", []int{8}},
		{"8,16", []int{8, 16}},
		{" 8 , 16 ", []int{8, 16}},
	} {
		got, err := parseInts(tc.in)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseInts(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{"8x,16", "8,16junk", "0", "-4", "8,,16", "1e3", "x"} {
		if got, err := parseInts(in); err == nil {
			t.Errorf("parseInts(%q) = %v, want an error", in, got)
		}
	}
}
