package rpc_test

import (
	"testing"

	"griddles/internal/rpc"
)

// oneShotEcho runs one echo as a one-shot exchange and returns the reply.
func oneShotEcho(t *testing.T, b *bench, bufs rpc.Buffers, payload []byte) []byte {
	t.Helper()
	s, err := rpc.OpenOnce("test", bufs, b.net.Host("app"), "srv:4000", b.v, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, resp, err := s.Call(msgEcho, payload, msgEchoResp)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestOneShotReplyOutlivesTheStream: the payload a one-shot Call returns is
// the caller's. It is still intact after the stream closed and the next
// one-shot exchange took the same pooled buffers and read another reply.
func TestOneShotReplyOutlivesTheStream(t *testing.T) {
	b := newBench()
	b.v.Run(func() {
		b.start(t)
		first := oneShotEcho(t, b, rpc.Buffers{}, []byte("the first reply"))
		if second := oneShotEcho(t, b, rpc.Buffers{}, []byte("A SECOND, LONGER REPLY")); string(second) != "A SECOND, LONGER REPLY" {
			t.Fatalf("second reply = %q", second)
		}
		if string(first) != "the first reply" {
			t.Fatalf("first reply became %q after the next exchange", first)
		}
	})
}

// TestOneShotCloseReleasesTheStream: a closed one-shot stream holds no
// buffer, so using it again fails loudly instead of reading through buffers
// another exchange now owns; a second Close is harmless.
func TestOneShotCloseReleasesTheStream(t *testing.T) {
	b := newBench()
	b.v.Run(func() {
		b.start(t)
		s, err := rpc.OpenOnce("test", rpc.Buffers{}, b.net.Host("app"), "srv:4000", b.v, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		defer func() {
			if recover() == nil {
				t.Error("a closed one-shot stream read a frame")
			}
		}()
		s.Next()
	})
}
