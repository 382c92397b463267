package kvwire

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"ycsbt/internal/kvstore"
)

// Both ends read the handshake and every frame through one buffered
// reader per connection, so bytes the peer coalesced behind the magic
// or behind a frame must still be decoded, and a frame that arrives in
// pieces must still be assembled. These tests control segmentation by
// controlling Write calls on loopback TCP (Go sets TCP_NODELAY, so
// each Write leaves as its own segment).

// TestServerMagicAndRequestInOneSegment hands the server the magic and
// the first request frame in a single write: the bytes the handshake
// read pulls in beyond the magic are the request, not garbage.
func TestServerMagicAndRequestInOneSegment(t *testing.T) {
	core := newTestCore(t)
	_, addr := startWireServer(t, core, ServerOptions{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	first := AppendRequest([]byte(Magic), 7, 0, []Op{
		{Kind: KindPut, Table: "t", Key: "k", Fields: map[string][]byte{"f": []byte("v")}, Expect: kvstore.MustNotExist},
	})
	if _, err := conn.Write(first); err != nil {
		t.Fatal(err)
	}
	var echo [len(Magic)]byte
	if _, err := io.ReadFull(conn, echo[:]); err != nil || string(echo[:]) != Magic {
		t.Fatalf("handshake echo = %q, %v", echo, err)
	}
	typ, id, payload, err := ReadFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameResponse || id != 7 {
		t.Fatalf("frame type %d id %d, want response to 7", typ, id)
	}
	res, err := DecodeResponse(payload, nil)
	if err != nil || len(res) != 1 || res[0].Status != 200 {
		t.Fatalf("response = %+v, %v", res, err)
	}

	// Two more requests pipelined in one write, the second split off
	// mid-header into a later write.
	two := AppendRequest(nil, 8, 0, []Op{{Kind: KindGet, Table: "t", Key: "k"}})
	cut := len(two) + 5
	two = AppendRequest(two, 9, 0, []Op{{Kind: KindGet, Table: "t", Key: "k"}})
	if _, err := conn.Write(two[:cut]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the first piece leave alone
	if _, err := conn.Write(two[cut:]); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		_, id, payload, err := ReadFrame(conn, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := DecodeResponse(payload, nil)
		if err != nil || len(res) != 1 || string(res[0].Fields["f"]) != "v" {
			t.Fatalf("get %d = %+v, %v", id, res, err)
		}
		seen[id] = true
	}
	if !seen[8] || !seen[9] {
		t.Fatalf("responses seen = %v, want 8 and 9", seen)
	}
}

// TestClientCoalescedAndSplitResponses runs the client against a
// scripted peer that sends the handshake echo and the reply to the
// first request in one segment, answers the second request in two
// writes cut inside the payload, and answers the third under an id the
// client never sent, which fails that Exec and leaves its connection
// out of the pool.
func TestClientCoalescedAndSplitResponses(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	answer := func(buf []byte, id uint64) []byte {
		return AppendResponse(buf, id, []Result{{Status: 200, Version: id, HasVersion: true, Fields: map[string][]byte{"f": []byte("payload-of-some-length")}}})
	}
	peerErr := make(chan error, 1)
	go func() {
		peerErr <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			var magic [len(Magic)]byte
			if _, err := io.ReadFull(conn, magic[:]); err != nil {
				return err
			}
			// The echo and the reply to request 1 in one segment, sent
			// before the request arrives: a connection numbers its
			// requests from 1.
			if _, err := conn.Write(answer([]byte(Magic), 1)); err != nil {
				return err
			}
			if _, id, _, err := ReadFrame(conn, nil); err != nil || id != 1 {
				return fmt.Errorf("first request id %d, %v; want 1", id, err)
			}
			// Second request: the response leaves in two pieces.
			_, id, _, err := ReadFrame(conn, nil)
			if err != nil {
				return err
			}
			frame := answer(nil, id)
			cut := frameHeaderLen + 3
			if _, err := conn.Write(frame[:cut]); err != nil {
				return err
			}
			time.Sleep(20 * time.Millisecond)
			if _, err := conn.Write(frame[cut:]); err != nil {
				return err
			}
			// Third request: answered under the wrong id.
			if _, id, _, err = ReadFrame(conn, nil); err != nil {
				return err
			}
			if _, err := conn.Write(answer(nil, id+1)); err != nil {
				return err
			}
			// The client closes the connection it can no longer trust.
			_, err = io.Copy(io.Discard, conn)
			return err
		}()
	}()

	ep := NewEndpoint(ln.Addr().String(), 1)
	defer ep.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	get := []Op{{Kind: KindGet, Table: "t", Key: "k"}}

	res, err := ep.Exec(ctx, get)
	if err != nil || len(res) != 1 || res[0].Status != 200 || res[0].Version != 1 {
		t.Fatalf("reply coalesced with the echo = %+v, %v", res, err)
	}
	res, err = ep.Exec(ctx, get)
	if err != nil || len(res) != 1 || string(res[0].Fields["f"]) != "payload-of-some-length" {
		t.Fatalf("split response = %+v, %v", res, err)
	}
	if _, err := ep.Exec(ctx, get); err == nil || !strings.Contains(err.Error(), "reply to request") {
		t.Fatalf("reply under the wrong id: err = %v, want it refused", err)
	}
	open, idle := ep.pool.Counts()
	if open != 0 || idle != 0 {
		t.Fatalf("after a mismatched reply: %d connections open, %d idle; want none", open, idle)
	}
	if err := <-peerErr; err != nil {
		t.Fatalf("scripted peer: %v", err)
	}
}
