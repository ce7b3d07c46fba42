// Package wire is the protocol side of the wirexhaustive corpus: two
// constant groups, sentinels, and a code↔error translator pair whose decoder
// has no case for CodeGone.
package wire

import "errors"

const (
	TypeHello = 0x01
	TypeData  = 0x02
	TypeBye   = 0x03
)

const (
	CodeFull = 1
	CodeBad  = 2
	CodeGone = 3
)

var (
	ErrFull = errors.New("full")
	ErrBad  = errors.New("bad")
)

// CodeToErr is the client-side decoder: CodeGone is missing.
func CodeToErr(code uint16) error {
	switch code {
	case CodeFull:
		return ErrFull
	case CodeBad:
		return ErrBad
	default:
		return errors.New("unknown code")
	}
}

// ErrToCode is the daemon-side encoder.
func ErrToCode(err error) uint16 {
	switch {
	case errors.Is(err, ErrFull):
		return CodeFull
	case errors.Is(err, ErrBad):
		return CodeBad
	default:
		return CodeGone
	}
}

// ErrorFrame mirrors a typed rejection frame.
type ErrorFrame struct {
	Code uint16
	Msg  string
}

// Frame assembles a raw frame; the typ parameter name is what the raw
// literal check keys on at call sites.
func Frame(typ uint8, payload []byte) []byte {
	return append([]byte{typ}, payload...)
}
