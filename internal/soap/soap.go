// Package soap is the paper's Web-Services binding of a framed protocol
// (core.TransportSOAP): the frames one connection-per-call exchange carries
// travel base64-encoded inside a SOAP 1.1 envelope, one HTTP POST and one
// answer per connection — how the paper's prototype exposed its Grid Buffer
// ("implemented using Web Services, and is accessed by SOAP messages", §4).
//
// The package knows HTTP and XML, not the protocol inside the envelope. On
// the client side a Dialer hands out connections whose bytes travel this way;
// on the server side Serve hands each request's bytes, as a connection, to
// the protocol's own per-connection handler. So deadlines, retries and
// admission are whatever the protocol's client and server already do.
//
// The HTTP layer is a deliberately small HTTP/1.1 subset rather than
// net/http: under the deterministic virtual clock every goroutine that can
// block must be registered with the clock, and net/http spawns its own.
// The same code serves real TCP in wall-clock mode.
package soap

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"

	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/wire"
)

// servicePath is the one endpoint the binding serves, named after the paper's
// service.
const servicePath = "/GridBufferService"

// An envelope is fixed text around the base64 of the frames, so its size
// follows from theirs.
const (
	nsEnvelope = "http://schemas.xmlsoap.org/soap/envelope/"
	envHead    = xml.Header + `<Envelope xmlns="` + nsEnvelope + `"><Body xmlns="` + nsEnvelope + `"><Frames>`
	envTail    = `</Frames></Body></Envelope>`
)

// MaxBody bounds a request or response body: the envelope around the base64
// of one frame (its 5-byte header and the largest payload wire.MaxFrame
// allows). One exchange of a connection-per-call client is one frame each
// way, so every block a service accepts fits.
const MaxBody = len(envHead) + (5+wire.MaxFrame+2)/3*4 + len(envTail)

// envelope is a SOAP 1.1 envelope as decode reads it: frames, or a fault.
type envelope struct {
	XMLName xml.Name `xml:"http://schemas.xmlsoap.org/soap/envelope/ Envelope"`
	Body    struct {
		Frames *string `xml:"Frames"`
		Fault  *fault  `xml:"Fault"`
	} `xml:"http://schemas.xmlsoap.org/soap/envelope/ Body"`
}

// fault is a SOAP 1.1 fault.
type fault struct {
	Code   string `xml:"faultcode"`
	String string `xml:"faultstring"`
}

// encode wraps frames in an envelope.
func encode(frames []byte) []byte {
	out := make([]byte, len(envHead)+base64.StdEncoding.EncodedLen(len(frames))+len(envTail))
	n := copy(out, envHead)
	base64.StdEncoding.Encode(out[n:], frames)
	copy(out[len(out)-len(envTail):], envTail)
	return out
}

// faultBody is the envelope of a fault; code is "Client" or "Server".
func faultBody(code, msg string) []byte {
	var env envelope
	env.Body.Fault = &fault{Code: "soap:" + code, String: msg}
	out, _ := xml.Marshal(env) // strings only: it cannot fail
	return append([]byte(xml.Header), out...)
}

// decode unwraps an envelope: its frames, or its fault.
func decode(body []byte) ([]byte, *fault, error) {
	var env envelope
	if err := xml.Unmarshal(body, &env); err != nil {
		return nil, nil, fmt.Errorf("soap: %w", err)
	}
	switch b := env.Body; {
	case b.Fault != nil:
		return nil, b.Fault, nil
	case b.Frames != nil:
		frames, err := base64.StdEncoding.DecodeString(*b.Frames)
		if err != nil {
			return nil, nil, fmt.Errorf("soap: frames: %w", err)
		}
		return frames, nil, nil
	}
	return nil, nil, errors.New("soap: empty body")
}

// Serve accepts connections on l until it is closed. Each carries one POST,
// HTTP/1.0 style with an explicit close, like the connection-per-call SOAP
// stacks of 2004. handle runs on a connection whose reads are the request's
// frames and whose writes are gathered into the answer. An answer that is
// one error frame (rpc.MsgError) leaves as a SOAP fault with HTTP 500, as
// SOAP 1.1 requires; malformed HTTP is refused with 400 or 405.
func Serve(l net.Listener, clock simclock.Clock, handle func(net.Conn)) {
	rpc.Serve(l, clock, "soap-http-conn", nil, func(conn net.Conn) { serveCall(conn, handle) })
}

func serveCall(conn net.Conn, handle func(net.Conn)) {
	defer conn.Close()
	line, body, err := readMessage(bufio.NewReader(conn))
	if err == nil && !strings.HasPrefix(line[2], "HTTP/1.") {
		err = fmt.Errorf("soap: malformed request line %q", strings.Join(line, " "))
	}
	switch {
	case err != nil:
		writeResponse(conn, 400, []byte("bad request: "+err.Error()))
		return
	case line[0] != "POST":
		writeResponse(conn, 405, []byte("method not allowed"))
		return
	case line[1] != servicePath:
		writeResponse(conn, 400, faultBody("Client", "unknown endpoint "+line[1]))
		return
	}
	frames, f, err := decode(body)
	if err == nil && f != nil {
		err = errors.New("soap: a fault is not a request")
	}
	if err != nil {
		writeResponse(conn, 400, faultBody("Client", err.Error()))
		return
	}
	call := &serverCall{Conn: conn, req: bytes.NewReader(frames)}
	handle(call)
	if msg, ok := errorFrame(call.answer.Bytes()); ok {
		writeResponse(conn, 500, faultBody("Server", msg))
		return
	}
	writeResponse(conn, 200, encode(call.answer.Bytes()))
}

// serverCall is the connection a handler serves one request on: it reads the
// request's frames and its writes gather the answer. Closing it is left to
// the HTTP exchange, which answers first.
type serverCall struct {
	net.Conn
	req    *bytes.Reader
	answer bytes.Buffer
}

func (c *serverCall) Read(p []byte) (int, error)  { return c.req.Read(p) }
func (c *serverCall) Write(p []byte) (int, error) { return c.answer.Write(p) }
func (c *serverCall) Close() error                { return nil }

// errorFrame reports the message of an answer that is exactly one error
// frame.
func errorFrame(answer []byte) (string, bool) {
	r := bytes.NewReader(answer)
	typ, payload, err := wire.ReadFrame(r)
	if err != nil || typ != rpc.MsgError || r.Len() > 0 {
		return "", false
	}
	d := wire.NewDecoder(payload)
	msg := d.String()
	return msg, d.Err() == nil && d.Remaining() == 0
}

// Dialer dials through the embedded dialer and gives each connection SOAP's
// shape: what is written before the first Read leaves as one POST, and the
// answer's frames are what Read returns, then EOF. A fault comes back as the
// error frame it was made from. That is the whole life of a
// connection-per-call client's connection: write the request, read the
// answer, close. Deadlines and Close are the underlying connection's.
type Dialer struct{ rpc.Dialer }

// Dial implements rpc.Dialer.
func (d Dialer) Dial(addr string) (net.Conn, error) {
	conn, err := d.Dialer.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &clientCall{Conn: conn, addr: addr}, nil
}

// clientCall is one call's connection as the client sees it.
type clientCall struct {
	net.Conn
	addr   string
	req    []byte
	answer *bytes.Reader // nil until the request is posted
	err    error         // why the post failed; every Read returns it
}

func (c *clientCall) Write(p []byte) (int, error) {
	if c.answer != nil {
		return 0, errors.New("soap: write after the call was posted")
	}
	c.req = append(c.req, p...)
	return len(p), nil
}

func (c *clientCall) Read(p []byte) (int, error) {
	if c.answer == nil {
		var frames []byte
		frames, c.err = c.post()
		c.answer = bytes.NewReader(frames)
	}
	if c.err != nil {
		return 0, c.err
	}
	return c.answer.Read(p)
}

// post sends the gathered request as one POST and returns the answer's
// frames.
func (c *clientCall) post() ([]byte, error) {
	body := encode(c.req)
	c.req = nil
	hdr := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: text/xml; charset=utf-8\r\nSOAPAction: \"\"\r\nContent-Length: %d\r\nConnection: close\r\n\r\n",
		servicePath, c.addr, len(body))
	if _, err := io.WriteString(c.Conn, hdr); err != nil {
		return nil, err
	}
	if _, err := c.Conn.Write(body); err != nil {
		return nil, err
	}
	line, resp, err := readMessage(bufio.NewReader(c.Conn))
	if err != nil {
		return nil, err
	}
	status, err := strconv.Atoi(line[1])
	if err != nil || !strings.HasPrefix(line[0], "HTTP/1.") {
		return nil, fmt.Errorf("soap: malformed status line %q", strings.Join(line, " "))
	}
	frames, f, err := decode(resp)
	switch {
	case err == nil && status == 200 && f == nil:
		return frames, nil
	case err == nil && status == 500 && f != nil:
		var errFrame bytes.Buffer
		rpc.WriteError(&errFrame, errors.New(f.String)) // a bytes.Buffer takes every write
		return errFrame.Bytes(), nil
	}
	return nil, fmt.Errorf("soap: HTTP %d: %.200s", status, resp)
}

// readMessage parses one HTTP message: its first line — a request line or a
// status line — split in three, then its headers and body.
func readMessage(br *bufio.Reader) (line []string, body []byte, err error) {
	first, err := readLine(br)
	if err != nil {
		return nil, nil, err
	}
	if line = strings.SplitN(first, " ", 3); len(line) != 3 {
		return nil, nil, fmt.Errorf("soap: malformed first line %q", first)
	}
	body, err = readBody(br)
	return line, body, err
}

// readBody consumes the headers up to the blank line, then the body their
// Content-Length announces (none when absent), refusing one over MaxBody.
func readBody(br *bufio.Reader) ([]byte, error) {
	length := 0
	for {
		line, err := readLine(br)
		if err != nil {
			return nil, err
		}
		if line == "" {
			break
		}
		if k, v, ok := strings.Cut(line, ":"); ok && strings.EqualFold(strings.TrimSpace(k), "Content-Length") {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil || n < 0 || n > MaxBody {
				return nil, fmt.Errorf("soap: bad Content-Length %q", v)
			}
			length = n
		}
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, fmt.Errorf("soap: short body: %w", err)
	}
	return body, nil
}

func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

var statusText = map[int]string{200: "OK", 400: "Bad Request", 405: "Method Not Allowed", 500: "Internal Server Error"}

// writeResponse answers; a peer that has gone learns nothing either way.
func writeResponse(w io.Writer, status int, body []byte) {
	hdr := fmt.Sprintf("HTTP/1.1 %d %s\r\nContent-Type: text/xml; charset=utf-8\r\nContent-Length: %d\r\nConnection: close\r\n\r\n",
		status, statusText[status], len(body))
	if _, err := io.WriteString(w, hdr); err == nil {
		w.Write(body)
	}
}
