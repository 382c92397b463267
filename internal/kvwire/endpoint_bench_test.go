package kvwire

import (
	"context"
	"io"
	"net"
	"testing"

	"ycsbt/internal/kvstore"
)

// BenchmarkEndpointGet times a one-get Exec against an in-process
// server over loopback TCP. Its loopback sub-benchmark is the floor
// under it: a raw 32-byte ping-pong between two goroutines on one
// loopback connection, so exec minus loopback is what the protocol,
// the pool and the store add to the round trip.
func BenchmarkEndpointGet(b *testing.B) {
	b.Run("exec", func(b *testing.B) {
		core := newTestCore(b)
		_, addr := startWireServer(b, core, ServerOptions{})
		ep := NewEndpoint(addr, 0)
		defer ep.Close()
		ctx := context.Background()
		put := []Op{{Kind: KindPut, Table: "t", Key: "k", Fields: map[string][]byte{"f": []byte("v")}, Expect: kvstore.AnyVersion}}
		if _, err := ep.Exec(ctx, put); err != nil {
			b.Fatal(err)
		}
		get := []Op{{Kind: KindGet, Table: "t", Key: "k"}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res, err := ep.Exec(ctx, get); err != nil || res[0].Status != 200 {
				b.Fatalf("get = %+v, %v", res, err)
			}
		}
	})
	b.Run("loopback", func(b *testing.B) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			var buf [32]byte
			for {
				if _, err := io.ReadFull(conn, buf[:]); err != nil {
					return
				}
				if _, err := conn.Write(buf[:]); err != nil {
					return
				}
			}
		}()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		var buf [32]byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := conn.Write(buf[:]); err != nil {
				b.Fatal(err)
			}
			if _, err := io.ReadFull(conn, buf[:]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
