// Interface transaction properties for pipeline. Machine generated; do not edit.

module pipeline_prop #(
    parameter DW = 8,
    parameter ASSERT_INPUTS = 0,
    parameter PIPE_MAX_OUTSTANDING = 8
) (
    input wire clk,
    input wire rst_n,
    input wire pipe_in_val,
    input wire pipe_in_ack,
    input wire [1:0] pipe_in_transid,
    input wire [DW-1:0] pipe_in_data,
    input wire pipe_out_val,
    input wire [1:0] pipe_out_transid,
    input wire [DW-1:0] pipe_out_data,
    input wire busy
);

// ---- transaction pipe: pipe_in -in> pipe_out ----

wire pipe_in_active = busy;
wire pipe_in_hsk = pipe_in_val && pipe_in_ack;
wire pipe_out_hsk = pipe_out_val;
localparam PIPE_CNT_WIDTH = $clog2(PIPE_MAX_OUTSTANDING + 1);
logic [PIPE_CNT_WIDTH-1:0] pipe_outstanding;
always @(posedge clk) begin
    if (!rst_n)
        pipe_outstanding <= '0;
    else if (pipe_in_hsk && !pipe_out_hsk)
        pipe_outstanding <= pipe_outstanding + 1'b1;
    else if (pipe_out_hsk && !pipe_in_hsk)
        pipe_outstanding <= pipe_outstanding - 1'b1;
end
(* anyconst *) logic [1:0] symb_pipe_transid;
symb_pipe_transid_stable: assume property (@(posedge clk) $stable(symb_pipe_transid));
logic pipe_inflight;
always @(posedge clk) begin
    if (!rst_n)
        pipe_inflight <= 1'b0;
    else if (pipe_in_hsk && (pipe_in_transid == symb_pipe_transid))
        pipe_inflight <= 1'b1;
    else if (pipe_out_hsk && (pipe_out_transid == symb_pipe_transid))
        pipe_inflight <= 1'b0;
end
logic [DW-1:0] pipe_sampled_data;
always @(posedge clk) begin
    if (!rst_n)
        pipe_sampled_data <= '0;
    else if (pipe_in_hsk && (pipe_in_transid == symb_pipe_transid))
        pipe_sampled_data <= pipe_in_data;
end

pipe_liveness: assert property (@(posedge clk) disable iff (!rst_n)
    (pipe_in_hsk && (pipe_in_transid == symb_pipe_transid)) |-> s_eventually (pipe_out_val && (pipe_out_transid == symb_pipe_transid)));

pipe_response_had_request: assert property (@(posedge clk) disable iff (!rst_n)
    pipe_out_val |-> ((pipe_outstanding > 0) || pipe_in_hsk));

pipe_counter_no_underflow: assert property (@(posedge clk) disable iff (!rst_n)
    (pipe_out_hsk && !pipe_in_hsk) |-> (pipe_outstanding > 0));

pipe_ack_eventually: assert property (@(posedge clk) disable iff (!rst_n)
    pipe_in_val |-> s_eventually (pipe_in_ack));

if (ASSERT_INPUTS) begin : pipe_stability_asrt
    pipe_stability: assert property (@(posedge clk) disable iff (!rst_n)
    (pipe_in_val && !pipe_in_ack) |=> (pipe_in_val && $stable({pipe_in_transid, pipe_in_data})));
end else begin : pipe_stability_assm
    pipe_stability: assume property (@(posedge clk) disable iff (!rst_n)
    (pipe_in_val && !pipe_in_ack) |=> (pipe_in_val && $stable({pipe_in_transid, pipe_in_data})));
end

pipe_active_covered: assert property (@(posedge clk) disable iff (!rst_n)
    (((pipe_outstanding > 0) |-> pipe_in_active) and (pipe_in_active |-> ((pipe_outstanding > 0) || pipe_in_hsk || pipe_out_val))));

pipe_transid_integrity: assert property (@(posedge clk) disable iff (!rst_n)
    (pipe_out_hsk && (pipe_out_transid == symb_pipe_transid)) |-> pipe_inflight);

if (ASSERT_INPUTS) begin : pipe_uniqueness_asrt
    pipe_uniqueness: assert property (@(posedge clk) disable iff (!rst_n)
    (pipe_in_hsk && (pipe_in_transid == symb_pipe_transid)) |-> !pipe_inflight);
end else begin : pipe_uniqueness_assm
    pipe_uniqueness: assume property (@(posedge clk) disable iff (!rst_n)
    (pipe_in_hsk && (pipe_in_transid == symb_pipe_transid)) |-> !pipe_inflight);
end

pipe_data_integrity: assert property (@(posedge clk) disable iff (!rst_n)
    (pipe_out_hsk && (pipe_out_transid == symb_pipe_transid)) |-> (pipe_out_data == pipe_sampled_data));

`ifdef XPROP
pipe_xprop_p: assert property (@(posedge clk) disable iff (!rst_n)
    pipe_in_val |-> !$isunknown({pipe_in_ack, pipe_in_transid, pipe_in_data}));
pipe_xprop_q: assert property (@(posedge clk) disable iff (!rst_n)
    pipe_out_val |-> !$isunknown({pipe_out_transid, pipe_out_data}));
`endif

endmodule
