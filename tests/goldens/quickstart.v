// quickstart — structural netlist over asicpp_sc_hd cells.
// Emitted by asicpp-flow; canonical order, byte-stable across gate insertion orders.
module quickstart (
    clk,
    \net_x[0] ,
    \net_x[10] ,
    \net_x[11] ,
    \net_x[1] ,
    \net_x[2] ,
    \net_x[3] ,
    \net_x[4] ,
    \net_x[5] ,
    \net_x[6] ,
    \net_x[7] ,
    \net_x[8] ,
    \net_x[9] ,
    \net_y[0] ,
    \net_y[10] ,
    \net_y[11] ,
    \net_y[12] ,
    \net_y[1] ,
    \net_y[2] ,
    \net_y[3] ,
    \net_y[4] ,
    \net_y[5] ,
    \net_y[6] ,
    \net_y[7] ,
    \net_y[8] ,
    \net_y[9] 
  );
  input clk;
  input \net_x[0] ;
  input \net_x[10] ;
  input \net_x[11] ;
  input \net_x[1] ;
  input \net_x[2] ;
  input \net_x[3] ;
  input \net_x[4] ;
  input \net_x[5] ;
  input \net_x[6] ;
  input \net_x[7] ;
  input \net_x[8] ;
  input \net_x[9] ;
  output \net_y[0] ;
  output \net_y[10] ;
  output \net_y[11] ;
  output \net_y[12] ;
  output \net_y[1] ;
  output \net_y[2] ;
  output \net_y[3] ;
  output \net_y[4] ;
  output \net_y[5] ;
  output \net_y[6] ;
  output \net_y[7] ;
  output \net_y[8] ;
  output \net_y[9] ;
  wire _n1;
  wire _n2;
  wire _n4;
  wire _n5;
  wire _n7;
  wire _n8;
  wire _n9;
  wire _n11;
  wire _n12;
  wire _n13;
  wire _n15;
  wire _n16;
  wire _n17;
  wire _n19;
  wire _n20;
  wire _n21;
  wire _n23;
  wire _n24;
  wire _n25;
  wire _n27;
  wire _n28;
  wire _n29;
  wire _n31;
  wire _n32;
  wire _n33;
  wire _n35;
  wire _n36;
  wire _n37;
  wire _n39;
  wire _n40;
  wire _n41;
  wire _n42;
  wire _n43;
  wire _n44;
  wire _n45;
  wire _n46;
  wire _n47;
  wire _n48;
  wire _n49;
  wire _n50;
  wire _n51;
  wire _n52;
  wire _n53;
  wire _n54;
  wire _n55;
  wire _n56;
  wire _n57;
  wire _n58;
  wire _n59;
  wire _n60;
  wire _n61;
  wire _n63;
  wire _n64;
  wire _n65;
  wire _n66;
  wire _n67;
  wire _n68;
  wire _n69;
  wire _n70;
  wire _n71;
  wire _n72;
  wire _n73;
  wire _n74;
  wire _n75;
  wire _n76;
  wire _n77;
  wire _n78;
  wire _n79;
  wire _n80;
  wire _n81;
  asicpp_sc_hd__dfxtp_1 _g1 (.CLK(clk), .D(\net_x[0] ), .Q(_n1));
  asicpp_sc_hd__xor2_1 _g2 (.A(\net_x[0] ), .B(_n1), .X(_n2));
  asicpp_sc_hd__dfxtp_1 _g4 (.CLK(clk), .D(\net_x[10] ), .Q(_n4));
  asicpp_sc_hd__xor2_1 _g5 (.A(\net_x[10] ), .B(_n4), .X(_n5));
  asicpp_sc_hd__dfxtp_1 _g7 (.CLK(clk), .D(\net_x[9] ), .Q(_n7));
  asicpp_sc_hd__and2_1 _g8 (.A(\net_x[9] ), .B(_n7), .X(_n8));
  asicpp_sc_hd__xor2_1 _g9 (.A(\net_x[9] ), .B(_n7), .X(_n9));
  asicpp_sc_hd__dfxtp_1 _g11 (.CLK(clk), .D(\net_x[8] ), .Q(_n11));
  asicpp_sc_hd__and2_1 _g12 (.A(\net_x[8] ), .B(_n11), .X(_n12));
  asicpp_sc_hd__xor2_1 _g13 (.A(\net_x[8] ), .B(_n11), .X(_n13));
  asicpp_sc_hd__dfxtp_1 _g15 (.CLK(clk), .D(\net_x[7] ), .Q(_n15));
  asicpp_sc_hd__and2_1 _g16 (.A(\net_x[7] ), .B(_n15), .X(_n16));
  asicpp_sc_hd__xor2_1 _g17 (.A(\net_x[7] ), .B(_n15), .X(_n17));
  asicpp_sc_hd__dfxtp_1 _g19 (.CLK(clk), .D(\net_x[6] ), .Q(_n19));
  asicpp_sc_hd__and2_1 _g20 (.A(\net_x[6] ), .B(_n19), .X(_n20));
  asicpp_sc_hd__xor2_1 _g21 (.A(\net_x[6] ), .B(_n19), .X(_n21));
  asicpp_sc_hd__dfxtp_1 _g23 (.CLK(clk), .D(\net_x[5] ), .Q(_n23));
  asicpp_sc_hd__and2_1 _g24 (.A(\net_x[5] ), .B(_n23), .X(_n24));
  asicpp_sc_hd__xor2_1 _g25 (.A(\net_x[5] ), .B(_n23), .X(_n25));
  asicpp_sc_hd__dfxtp_1 _g27 (.CLK(clk), .D(\net_x[4] ), .Q(_n27));
  asicpp_sc_hd__and2_1 _g28 (.A(\net_x[4] ), .B(_n27), .X(_n28));
  asicpp_sc_hd__xor2_1 _g29 (.A(\net_x[4] ), .B(_n27), .X(_n29));
  asicpp_sc_hd__dfxtp_1 _g31 (.CLK(clk), .D(\net_x[3] ), .Q(_n31));
  asicpp_sc_hd__and2_1 _g32 (.A(\net_x[3] ), .B(_n31), .X(_n32));
  asicpp_sc_hd__xor2_1 _g33 (.A(\net_x[3] ), .B(_n31), .X(_n33));
  asicpp_sc_hd__dfxtp_1 _g35 (.CLK(clk), .D(\net_x[2] ), .Q(_n35));
  asicpp_sc_hd__and2_1 _g36 (.A(\net_x[2] ), .B(_n35), .X(_n36));
  asicpp_sc_hd__xor2_1 _g37 (.A(\net_x[2] ), .B(_n35), .X(_n37));
  asicpp_sc_hd__dfxtp_1 _g39 (.CLK(clk), .D(\net_x[1] ), .Q(_n39));
  asicpp_sc_hd__and2_1 _g40 (.A(\net_x[1] ), .B(_n39), .X(_n40));
  asicpp_sc_hd__xor2_1 _g41 (.A(\net_x[1] ), .B(_n39), .X(_n41));
  asicpp_sc_hd__and2_1 _g42 (.A(\net_x[0] ), .B(_n1), .X(_n42));
  asicpp_sc_hd__and2_1 _g43 (.A(_n41), .B(_n42), .X(_n43));
  asicpp_sc_hd__or2_1 _g44 (.A(_n40), .B(_n43), .X(_n44));
  asicpp_sc_hd__and2_1 _g45 (.A(_n37), .B(_n44), .X(_n45));
  asicpp_sc_hd__or2_1 _g46 (.A(_n36), .B(_n45), .X(_n46));
  asicpp_sc_hd__and2_1 _g47 (.A(_n33), .B(_n46), .X(_n47));
  asicpp_sc_hd__or2_1 _g48 (.A(_n32), .B(_n47), .X(_n48));
  asicpp_sc_hd__and2_1 _g49 (.A(_n29), .B(_n48), .X(_n49));
  asicpp_sc_hd__or2_1 _g50 (.A(_n28), .B(_n49), .X(_n50));
  asicpp_sc_hd__and2_1 _g51 (.A(_n25), .B(_n50), .X(_n51));
  asicpp_sc_hd__or2_1 _g52 (.A(_n24), .B(_n51), .X(_n52));
  asicpp_sc_hd__and2_1 _g53 (.A(_n21), .B(_n52), .X(_n53));
  asicpp_sc_hd__or2_1 _g54 (.A(_n20), .B(_n53), .X(_n54));
  asicpp_sc_hd__and2_1 _g55 (.A(_n17), .B(_n54), .X(_n55));
  asicpp_sc_hd__or2_1 _g56 (.A(_n16), .B(_n55), .X(_n56));
  asicpp_sc_hd__and2_1 _g57 (.A(_n13), .B(_n56), .X(_n57));
  asicpp_sc_hd__or2_1 _g58 (.A(_n12), .B(_n57), .X(_n58));
  asicpp_sc_hd__and2_1 _g59 (.A(_n9), .B(_n58), .X(_n59));
  asicpp_sc_hd__or2_1 _g60 (.A(_n8), .B(_n59), .X(_n60));
  asicpp_sc_hd__xor2_1 _g61 (.A(_n5), .B(_n60), .X(_n61));
  asicpp_sc_hd__dfxtp_1 _g63 (.CLK(clk), .D(\net_x[11] ), .Q(_n63));
  asicpp_sc_hd__xor2_1 _g64 (.A(\net_x[11] ), .B(_n63), .X(_n64));
  asicpp_sc_hd__and2_1 _g65 (.A(\net_x[10] ), .B(_n4), .X(_n65));
  asicpp_sc_hd__and2_1 _g66 (.A(_n5), .B(_n60), .X(_n66));
  asicpp_sc_hd__or2_1 _g67 (.A(_n65), .B(_n66), .X(_n67));
  asicpp_sc_hd__xor2_1 _g68 (.A(_n64), .B(_n67), .X(_n68));
  asicpp_sc_hd__and2_1 _g69 (.A(\net_x[11] ), .B(_n63), .X(_n69));
  asicpp_sc_hd__and2_1 _g70 (.A(_n64), .B(_n67), .X(_n70));
  asicpp_sc_hd__or2_1 _g71 (.A(_n69), .B(_n70), .X(_n71));
  asicpp_sc_hd__xor2_1 _g72 (.A(_n64), .B(_n71), .X(_n72));
  asicpp_sc_hd__xor2_1 _g73 (.A(_n41), .B(_n42), .X(_n73));
  asicpp_sc_hd__xor2_1 _g74 (.A(_n37), .B(_n44), .X(_n74));
  asicpp_sc_hd__xor2_1 _g75 (.A(_n33), .B(_n46), .X(_n75));
  asicpp_sc_hd__xor2_1 _g76 (.A(_n29), .B(_n48), .X(_n76));
  asicpp_sc_hd__xor2_1 _g77 (.A(_n25), .B(_n50), .X(_n77));
  asicpp_sc_hd__xor2_1 _g78 (.A(_n21), .B(_n52), .X(_n78));
  asicpp_sc_hd__xor2_1 _g79 (.A(_n17), .B(_n54), .X(_n79));
  asicpp_sc_hd__xor2_1 _g80 (.A(_n13), .B(_n56), .X(_n80));
  asicpp_sc_hd__xor2_1 _g81 (.A(_n9), .B(_n58), .X(_n81));
  assign \net_y[0]  = _n2;
  assign \net_y[10]  = _n61;
  assign \net_y[11]  = _n68;
  assign \net_y[12]  = _n72;
  assign \net_y[1]  = _n73;
  assign \net_y[2]  = _n74;
  assign \net_y[3]  = _n75;
  assign \net_y[4]  = _n76;
  assign \net_y[5]  = _n77;
  assign \net_y[6]  = _n78;
  assign \net_y[7]  = _n79;
  assign \net_y[8]  = _n80;
  assign \net_y[9]  = _n81;
endmodule
