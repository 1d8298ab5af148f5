package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// client is one keep-alive HTTP/1.1 connection over loopback TCP. It
// is deliberately minimal — pre-rendered request bytes out, status and
// body back, one reusable buffer — so the load generator, which shares
// two cores with the system under test, spends its time waiting on the
// server rather than in net/http's client machinery. Not safe for
// concurrent use: each client goroutine owns one.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	req  []byte
	body []byte
}

func dial(addr string) (*client, error) {
	c := &client{addr: addr}
	return c, c.redial()
}

func (c *client) redial() error {
	c.close()
	conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
	if err != nil {
		return err
	}
	c.conn = conn
	c.br = bufio.NewReaderSize(conn, 64<<10)
	return nil
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// get issues GET path (suffix, when non-empty, is appended to the
// path — the version gate) and returns the status and body. The body
// aliases the client's buffer and is valid until the next call.
func (c *client) get(path, suffix []byte) (int, []byte, error) {
	c.req = append(c.req[:0], "GET "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, suffix...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: mrbench\r\n\r\n"...)
	return c.roundTrip()
}

// post issues POST path with the given content type and body.
func (c *client) post(path, contentType string, body []byte) (int, []byte, error) {
	c.req = append(c.req[:0], "POST "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: mrbench\r\nContent-Type: "...)
	c.req = append(c.req, contentType...)
	c.req = append(c.req, "\r\nContent-Length: "...)
	c.req = strconv.AppendInt(c.req, int64(len(body)), 10)
	c.req = append(c.req, "\r\n\r\n"...)
	c.req = append(c.req, body...)
	return c.roundTrip()
}

// roundTrip writes the prepared request and reads one response. Any
// transport error drops the connection; the next call redials.
func (c *client) roundTrip() (status int, body []byte, err error) {
	if c.conn == nil {
		if err := c.redial(); err != nil {
			return 0, nil, err
		}
	}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	if err := c.conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := c.conn.Write(c.req); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("bench: short status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bench: bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		k, v, ok := bytes.Cut(line[:len(line)-2], []byte(": "))
		if !ok {
			continue
		}
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, fmt.Errorf("bench: bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err = c.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			n, perr := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
			if perr != nil {
				return 0, nil, fmt.Errorf("bench: bad chunk size %q", line)
			}
			if err = c.readBody(int(n) + 2); err != nil { // chunk + CRLF
				return 0, nil, err
			}
			c.body = c.body[:len(c.body)-2]
			if n == 0 {
				break
			}
		}
	case length >= 0:
		if err = c.readBody(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, fmt.Errorf("bench: response with neither Content-Length nor chunked encoding")
	}
	return status, c.body, nil
}

// readBody appends exactly n bytes from the connection to c.body.
func (c *client) readBody(n int) error {
	at := len(c.body)
	if cap(c.body) < at+n {
		c.body = append(make([]byte, 0, 2*(at+n)), c.body...)
	}
	c.body = c.body[:at+n]
	_, err := io.ReadFull(c.br, c.body[at:])
	return err
}
